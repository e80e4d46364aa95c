#include "manifest.hpp"

#include <cstdio>
#include <span>
#include <sstream>

#include "checkpoint.hpp"
#include "json_util.hpp"

namespace finch::rt {

namespace {

constexpr std::string_view kChecksumPrefix = "#fnv1a:";

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

}  // namespace

std::string manifest_to_json(const RunManifest& m) {
  std::ostringstream os;
  os << "{\n"
     << "  \"config_hash\": " << m.config_hash << ",\n"
     << "  \"injector_seed\": " << m.injector_seed << ",\n"
     << "  \"solver\": \"" << m.solver << "\",\n"
     << "  \"nparts\": " << m.nparts << ",\n"
     << "  \"last_step\": " << m.last_step << ",\n"
     << "  \"saves\": " << m.saves << ",\n"
     << "  \"cancel_reason\": \"" << m.cancel_reason << "\",\n"
     << "  \"checkpoints\": [";
  for (size_t i = 0; i < m.checkpoints.size(); ++i)
    os << (i == 0 ? "" : ", ") << "\"" << m.checkpoints[i] << "\"";
  os << "],\n"
     << "  \"injector_counters\": [\n";
  for (size_t i = 0; i < m.injector_counters.size(); ++i) {
    const FaultCounter& c = m.injector_counters[i];
    os << "    {\"kind\": " << c.kind << ", \"site\": \"" << c.site
       << "\", \"consulted\": " << c.consulted << ", \"fired\": " << c.fired << "}"
       << (i + 1 < m.injector_counters.size() ? "," : "") << "\n";
  }
  os << "  ],\n"
     << "  \"injector_events\": [\n";
  for (size_t i = 0; i < m.injector_events.size(); ++i) {
    const FaultEvent& e = m.injector_events[i];
    os << "    {\"kind\": " << static_cast<int>(e.kind) << ", \"site\": \"" << e.site
       << "\", \"index\": " << e.event_index << "}"
       << (i + 1 < m.injector_events.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::string body = os.str();
  // Trailing checksum line over the JSON text: a torn write (SIGKILL before
  // the trailer flushed) or any in-place corruption is caught on read.
  body += std::string(kChecksumPrefix) +
          hex64(fnv1a64(body)) + "\n";
  return body;
}

namespace {

RunManifest parse_manifest_body(std::string_view json) {
  JsonCursor c{json, 0, "run manifest JSON"};
  RunManifest m;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "config_hash")
      m.config_hash = c.parse_u64();
    else if (key == "injector_seed")
      m.injector_seed = c.parse_u64();
    else if (key == "solver")
      m.solver = c.parse_string();
    else if (key == "nparts")
      m.nparts = static_cast<int>(c.parse_int());
    else if (key == "last_step")
      m.last_step = c.parse_int();
    else if (key == "saves")
      m.saves = c.parse_int();
    else if (key == "cancel_reason")
      m.cancel_reason = c.parse_string();
    else if (key == "checkpoints") {
      c.expect('[');
      bool first_path = true;
      while (!c.peek(']')) {
        if (!first_path) c.expect(',');
        first_path = false;
        m.checkpoints.push_back(c.parse_string());
      }
      c.expect(']');
    } else if (key == "injector_counters") {
      c.expect('[');
      bool first_counter = true;
      while (!c.peek(']')) {
        if (!first_counter) c.expect(',');
        first_counter = false;
        FaultCounter fc;
        c.expect('{');
        bool first_field = true;
        while (!c.peek('}')) {
          if (!first_field) c.expect(',');
          first_field = false;
          const std::string f = c.parse_string();
          c.expect(':');
          if (f == "kind")
            fc.kind = static_cast<int>(c.parse_int());
          else if (f == "site")
            fc.site = c.parse_string();
          else if (f == "consulted")
            fc.consulted = c.parse_int();
          else if (f == "fired")
            fc.fired = c.parse_int();
          else
            c.fail("unknown counter key '" + f + "'");
        }
        c.expect('}');
        m.injector_counters.push_back(std::move(fc));
      }
      c.expect(']');
    } else if (key == "injector_events") {
      c.expect('[');
      bool first_event = true;
      while (!c.peek(']')) {
        if (!first_event) c.expect(',');
        first_event = false;
        FaultEvent ev;
        c.expect('{');
        bool first_field = true;
        while (!c.peek('}')) {
          if (!first_field) c.expect(',');
          first_field = false;
          const std::string f = c.parse_string();
          c.expect(':');
          if (f == "kind") {
            const int64_t k = c.parse_int();
            if (k < 0 || k >= kNumFaultKinds) c.fail("event kind out of range");
            ev.kind = static_cast<FaultKind>(k);
          } else if (f == "site")
            ev.site = c.parse_string();
          else if (f == "index")
            ev.event_index = c.parse_int();
          else
            c.fail("unknown event key '" + f + "'");
        }
        c.expect('}');
        m.injector_events.push_back(std::move(ev));
      }
      c.expect(']');
    } else {
      c.fail("unknown manifest key '" + key + "'");
    }
  }
  c.expect('}');
  c.skip_ws();
  if (c.i != json.size()) c.fail("trailing content after manifest");
  if (m.solver != "cell" && m.solver != "band" && m.solver != "mgpu")
    throw std::invalid_argument("run manifest JSON: unknown solver '" + m.solver + "'");
  return m;
}

}  // namespace

RunManifest manifest_from_json(std::string_view text) {
  // Split off the trailing checksum line first: a manifest without it is by
  // definition incomplete (the trailer is the last thing written).
  const size_t pos = text.rfind(kChecksumPrefix);
  if (pos == std::string_view::npos)
    throw CheckpointError("manifest truncated (missing checksum trailer)");
  const std::string_view body = text.substr(0, pos);
  std::string_view trailer = text.substr(pos + kChecksumPrefix.size());
  while (!trailer.empty() && (trailer.back() == '\n' || trailer.back() == '\r'))
    trailer.remove_suffix(1);
  uint64_t stored = 0;
  if (trailer.size() != 16) throw CheckpointError("manifest truncated (bad checksum trailer)");
  for (char ch : trailer) {
    uint64_t nibble;
    if (ch >= '0' && ch <= '9') nibble = static_cast<uint64_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') nibble = static_cast<uint64_t>(ch - 'a' + 10);
    else throw CheckpointError("manifest truncated (bad checksum trailer)");
    stored = (stored << 4) | nibble;
  }
  const uint64_t actual = fnv1a64(body);
  if (stored != actual) throw CheckpointError("manifest checksum mismatch");
  try {
    return parse_manifest_body(body);
  } catch (const std::invalid_argument& e) {
    // A checksum-valid but unparseable manifest means a format bug or a
    // hand-edited file; still a named CheckpointError for callers.
    throw CheckpointError(std::string("manifest unreadable: ") + e.what());
  }
}

void write_manifest_atomic(const std::string& path, const RunManifest& m) {
  const std::string text = manifest_to_json(m);
  write_bytes_atomic(path, std::as_bytes(std::span<const char>(text.data(), text.size())));
}

RunManifest read_manifest(const std::string& path) {
  std::vector<std::byte> bytes;
  try {
    bytes = read_bytes_file(path);
  } catch (const CheckpointError&) {
    throw CheckpointError("cannot open manifest: " + path);
  }
  return manifest_from_json(
      std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

}  // namespace finch::rt

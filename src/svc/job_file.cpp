#include "job_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <fcntl.h>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>
#include <unistd.h>

#include "runtime/checkpoint.hpp"
#include "runtime/json_util.hpp"

namespace finch::svc {

const char* terminal_state_name(TerminalState s) {
  switch (s) {
    case TerminalState::Pending: return "pending";
    case TerminalState::Completed: return "completed";
    case TerminalState::Cancelled: return "cancelled";
    case TerminalState::Quarantined: return "quarantined";
    case TerminalState::Shed: return "shed";
  }
  return "unknown";
}

TerminalState terminal_state_from_name(std::string_view name) {
  for (TerminalState s : {TerminalState::Pending, TerminalState::Completed,
                          TerminalState::Cancelled, TerminalState::Quarantined,
                          TerminalState::Shed}) {
    if (name == terminal_state_name(s)) return s;
  }
  throw std::invalid_argument("terminal record: unknown state '" + std::string(name) + "'");
}

namespace {

void append_config(std::ostringstream& os, const JobConfig& c) {
  os << "{\"solver\":\"" << c.solver << "\",\"nparts\":" << c.nparts << ",\"nx\":" << c.nx
     << ",\"ny\":" << c.ny << ",\"ndirs\":" << c.ndirs << ",\"nbands\":" << c.nbands << "}";
}

JobConfig parse_config(rt::JsonCursor& c) {
  JobConfig cfg;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "solver") {
      cfg.solver = c.parse_string();
    } else if (key == "nparts") {
      cfg.nparts = static_cast<int>(c.parse_int());
    } else if (key == "nx") {
      cfg.nx = static_cast<int>(c.parse_int());
    } else if (key == "ny") {
      cfg.ny = static_cast<int>(c.parse_int());
    } else if (key == "ndirs") {
      cfg.ndirs = static_cast<int>(c.parse_int());
    } else if (key == "nbands") {
      cfg.nbands = static_cast<int>(c.parse_int());
    } else {
      c.fail("unknown config key '" + key + "'");
    }
  }
  c.expect('}');
  return cfg;
}

JobSpec parse_job(rt::JsonCursor& c) {
  JobSpec spec;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "id") {
      spec.id = c.parse_string();
    } else if (key == "tenant") {
      spec.tenant = c.parse_string();
    } else if (key == "priority") {
      spec.priority = static_cast<int>(c.parse_int());
    } else if (key == "solver") {
      spec.solver = c.parse_string();
    } else if (key == "nparts") {
      spec.nparts = static_cast<int>(c.parse_int());
    } else if (key == "nx") {
      spec.nx = static_cast<int>(c.parse_int());
    } else if (key == "ny") {
      spec.ny = static_cast<int>(c.parse_int());
    } else if (key == "ndirs") {
      spec.ndirs = static_cast<int>(c.parse_int());
    } else if (key == "nbands") {
      spec.nbands = static_cast<int>(c.parse_int());
    } else if (key == "nsteps") {
      spec.nsteps = static_cast<int>(c.parse_int());
    } else if (key == "seed") {
      spec.seed = c.parse_u64();
    } else if (key == "deadline_steps") {
      spec.deadline_steps = c.parse_int();
    } else if (key == "max_rollbacks") {
      spec.max_rollbacks = static_cast<int>(c.parse_int());
    } else if (key == "ckpt_interval") {
      spec.ckpt_interval = static_cast<int>(c.parse_int());
    } else if (key == "faults") {
      c.expect('[');
      while (!c.peek(']')) {
        spec.faults.push_back(rt::fault_from_json(c));
        if (!c.eat(',')) break;
      }
      c.expect(']');
    } else if (key == "fallbacks") {
      c.expect('[');
      while (!c.peek(']')) {
        spec.fallbacks.push_back(parse_config(c));
        if (!c.eat(',')) break;
      }
      c.expect(']');
    } else {
      c.fail("unknown job key '" + key + "'");
    }
  }
  c.expect('}');
  if (spec.id.empty()) c.fail("job is missing \"id\"");
  return spec;
}

void append_job(std::ostringstream& os, const JobSpec& spec) {
  os << "{\"id\":\"" << spec.id << "\",\"tenant\":\"" << spec.tenant
     << "\",\"priority\":" << spec.priority << ",\"solver\":\"" << spec.solver
     << "\",\"nparts\":" << spec.nparts << ",\"nx\":" << spec.nx << ",\"ny\":" << spec.ny
     << ",\"ndirs\":" << spec.ndirs << ",\"nbands\":" << spec.nbands
     << ",\"nsteps\":" << spec.nsteps << ",\"seed\":" << spec.seed
     << ",\"deadline_steps\":" << spec.deadline_steps
     << ",\"max_rollbacks\":" << spec.max_rollbacks
     << ",\"ckpt_interval\":" << spec.ckpt_interval << ",\"faults\":[";
  for (size_t i = 0; i < spec.faults.size(); ++i) {
    if (i) os << ",";
    os << rt::fault_to_json(spec.faults[i]);
  }
  os << "],\"fallbacks\":[";
  for (size_t i = 0; i < spec.fallbacks.size(); ++i) {
    if (i) os << ",";
    append_config(os, spec.fallbacks[i]);
  }
  os << "]}";
}

}  // namespace

std::string job_to_json(const JobSpec& spec) {
  std::ostringstream os;
  append_job(os, spec);
  return os.str();
}

JobSpec job_from_json(std::string_view json) {
  rt::JsonCursor c{json, 0, "job spec"};
  JobSpec spec = parse_job(c);
  c.skip_ws();
  if (c.i != json.size()) c.fail("trailing bytes after job spec");
  return spec;
}

std::string jobs_to_json(const std::vector<JobSpec>& jobs) {
  std::ostringstream os;
  os << "{\"jobs\":[";
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i) os << ",";
    append_job(os, jobs[i]);
  }
  os << "]}";
  return os.str();
}

std::vector<JobSpec> jobs_from_json(std::string_view json) {
  rt::JsonCursor c{json, 0, "job file"};
  std::vector<JobSpec> jobs;
  c.expect('{');
  const std::string key = c.parse_string();
  if (key != "jobs") c.fail("expected \"jobs\"");
  c.expect(':');
  c.expect('[');
  while (!c.peek(']')) {
    jobs.push_back(parse_job(c));
    if (!c.eat(',')) break;
  }
  c.expect(']');
  c.expect('}');
  c.skip_ws();
  if (c.i != json.size()) c.fail("trailing bytes after job file");
  return jobs;
}

std::string terminal_to_json(TerminalState state, const std::string& detail) {
  std::ostringstream os;
  os << "{\"state\":\"" << terminal_state_name(state) << "\",\"detail\":\"";
  // Details are free text (exception messages); replace the characters the
  // escape-free cursor and a one-line record cannot carry rather than
  // producing an unreadable record.
  for (char ch : detail) {
    if (ch == '"' || ch == '\\') ch = '\'';
    if (ch == '\n' || ch == '\r') ch = ' ';
    os << ch;
  }
  os << "\"}";
  return os.str();
}

void terminal_from_json(std::string_view json, TerminalState* state, std::string* detail) {
  rt::JsonCursor c{json, 0, "terminal record"};
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "state") {
      *state = terminal_state_from_name(c.parse_string());
    } else if (key == "detail") {
      *detail = c.parse_string();
    } else {
      c.fail("unknown terminal key '" + key + "'");
    }
  }
  c.expect('}');
}

void write_text_file_atomic(const std::string& path, const std::string& text) {
  rt::write_bytes_atomic(
      path, std::span<const std::byte>(reinterpret_cast<const std::byte*>(text.data()),
                                       text.size()));
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

// ---- the record journal ------------------------------------------------------

namespace {

constexpr std::string_view kTrailer = " #fnv1a:";
constexpr size_t kTrailerLen = kTrailer.size() + 16;

// One record line: `<kind> <id> <body> #fnv1a:<hex>` over what precedes the
// trailer.
std::string record_line(char kind, const std::string& id, const std::string& body) {
  std::string line;
  line.reserve(id.size() + body.size() + 3 + kTrailerLen + 1);
  line.push_back(kind);
  line.push_back(' ');
  line += id;
  line.push_back(' ');
  line += body;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(rt::fnv1a64(line)));
  line += kTrailer;
  line += hex;
  line.push_back('\n');
  return line;
}

// Parses one line (without its newline); false when it is not a whole,
// checksum-valid record.
bool parse_record(std::string_view line, JournalRecord* out) {
  if (line.size() < 4 + kTrailerLen) return false;
  const std::string_view text = line.substr(0, line.size() - kTrailerLen);
  const std::string_view trailer = line.substr(text.size());
  if (!trailer.starts_with(kTrailer)) return false;
  uint64_t stored = 0;
  for (char ch : trailer.substr(kTrailer.size())) {
    uint64_t nibble;
    if (ch >= '0' && ch <= '9') nibble = static_cast<uint64_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') nibble = static_cast<uint64_t>(ch - 'a' + 10);
    else return false;
    stored = (stored << 4) | nibble;
  }
  if (stored != rt::fnv1a64(text)) return false;
  if ((text[0] != 'A' && text[0] != 'T') || text[1] != ' ') return false;
  const size_t space = text.find(' ', 2);
  if (space == std::string_view::npos || space == 2) return false;
  out->kind = text[0];
  out->id = std::string(text.substr(2, space - 2));
  out->body = std::string(text.substr(space + 1));
  return true;
}

void write_all(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("cannot append to " + path);
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

// Length of `fd`'s bytes up to and including the last newline: what remains
// once a torn tail is cut away.
off_t complete_length(int fd, const std::string& path) {
  char buf[4096];
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) throw std::runtime_error("cannot size " + path);
  while (end > 0) {
    const off_t from = std::max<off_t>(0, end - static_cast<off_t>(sizeof buf));
    const ssize_t n = ::pread(fd, buf, static_cast<size_t>(end - from), from);
    if (n != end - from) throw std::runtime_error("cannot read " + path);
    for (ssize_t i = n; i > 0; --i)
      if (buf[i - 1] == '\n') return from + i;
    end = from;
  }
  return 0;
}

}  // namespace

JobJournal::JobJournal(std::string root) : root_(std::move(root)) {}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::append_admission(const JobSpec& spec) { append('A', spec.id, job_to_json(spec)); }

void JobJournal::append_terminal(const std::string& id, TerminalState state,
                                 const std::string& detail) {
  append('T', id, terminal_to_json(state, detail));
}

void JobJournal::append(char kind, const std::string& id, const std::string& body) {
  const std::string path = root_ + "/" + kFileName;
  if (fd_ < 0) {
    fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
    if (fd_ >= 0) {
      new_entry_ = true;
    } else if (errno == EEXIST) {
      fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
      if (fd_ < 0) throw std::runtime_error("cannot open " + path);
      const off_t size = ::lseek(fd_, 0, SEEK_END);
      const off_t keep = complete_length(fd_, path);
      if (keep != size) {
        if (::ftruncate(fd_, keep) != 0) throw std::runtime_error("cannot truncate " + path);
        dirty_ = true;
      }
    } else {
      throw std::runtime_error("cannot create " + path);
    }
  }
  write_all(fd_, record_line(kind, id, body), path);
  dirty_ = true;
}

void JobJournal::sync() {
  if (!dirty_) return;
  if (!rt::sync_fd(fd_, /*data_only=*/true))
    throw rt::CheckpointError("cannot sync " + root_ + "/" + kFileName);
  dirty_ = false;
  if (new_entry_) {
    rt::sync_directory(root_);
    new_entry_ = false;
  }
}

namespace {

// Calls `visit` with each valid record of `root`'s journal in file order and
// returns the number of lines skipped. One read of the file; no journal
// holds no records.
template <class Visit>
int scan_journal(const std::string& root, Visit&& visit) {
  const std::string path = root + "/" + JobJournal::kFileName;
  if (!file_exists(path)) return 0;
  const std::vector<std::byte> bytes = rt::read_bytes_file(path);
  const std::string_view text(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  int bad = 0;
  for (size_t at = 0; at < text.size();) {
    size_t nl = text.find('\n', at);
    if (nl == std::string::npos) nl = text.size();  // a torn last line
    JournalRecord r;
    if (parse_record(text.substr(at, nl - at), &r))
      visit(std::move(r));
    else
      ++bad;
    at = nl + 1;
  }
  return bad;
}

}  // namespace

std::vector<JournalRecord> JobJournal::read(const std::string& root, int* damaged) {
  std::vector<JournalRecord> records;
  const int bad = scan_journal(root, [&](JournalRecord&& r) { records.push_back(std::move(r)); });
  if (damaged != nullptr) *damaged = bad;
  return records;
}

std::map<std::string, JournalRecord> JobJournal::latest(const std::string& root, int* damaged) {
  std::map<std::string, JournalRecord> last;
  const int bad = scan_journal(root, [&](JournalRecord&& r) {
    std::string id = r.id;
    last[std::move(id)] = std::move(r);
  });
  if (damaged != nullptr) *damaged = bad;
  return last;
}

}  // namespace finch::svc

#include "job_file.hpp"

#include <cstddef>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <sys/stat.h>

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
  // Details are free text (exception messages); strip the two characters the
  // escape-free cursor cannot carry rather than producing an unreadable file.
  for (char ch : detail) os << ((ch == '"' || ch == '\\') ? '\'' : ch);
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

}  // namespace finch::svc

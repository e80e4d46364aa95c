#pragma once
// JSON codec + durable records for scheduler jobs.
//
// Two artifacts live here. First, the batch job file (`bte_cli --jobs FILE`):
// a strict JSON list of JobSpecs, written/read with the same rt::JsonCursor
// contract as chaos repros and run manifests — whitespace-insensitive, key
// order-insensitive, throws std::invalid_argument on anything unexpected,
// never half-parses. All numeric fields are integers (physical doubles come
// from the scheduler's base scenario), fault kinds are the canonical
// fault_kind_name strings, so a quarantine repro's faults paste straight
// back into a job file.
//
// Second, the per-job durable records the crash-restart scan keys on:
// `<root>/<id>/job.json` (the spec, committed at admission) and
// `<root>/<id>/terminal.json` (state + detail, committed atomically at the
// terminal transition). A job directory with a spec but no terminal record
// is an orphan: the scheduler died mid-job, and a restarted scheduler
// re-adopts it.

#include <string>
#include <string_view>
#include <vector>

#include "job.hpp"

namespace finch::svc {

std::string job_to_json(const JobSpec& spec);
JobSpec job_from_json(std::string_view json);

// The batch form: {"jobs": [...]}.
std::string jobs_to_json(const std::vector<JobSpec>& jobs);
std::vector<JobSpec> jobs_from_json(std::string_view json);

TerminalState terminal_state_from_name(std::string_view name);
std::string terminal_to_json(TerminalState state, const std::string& detail);
void terminal_from_json(std::string_view json, TerminalState* state, std::string* detail);

// Whole-file text IO used for the durable records; the write is atomic
// (tmp + fsync + rename) via rt::write_bytes_atomic. read_text_file throws
// std::runtime_error if the file cannot be opened.
void write_text_file_atomic(const std::string& path, const std::string& text);
std::string read_text_file(const std::string& path);
bool file_exists(const std::string& path);

}  // namespace finch::svc

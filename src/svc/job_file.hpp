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
// Second, the durable root's job records: one append-only journal,
// `<root>/jobs.log` (JobJournal below). Each record is one line, an
// admission `A <id> <job_to_json(spec)>` or a terminal record
// `T <id> <terminal_to_json(state, detail)>`, ending in ` #fnv1a:<16 hex>`
// over everything before it, the way run-manifest text ends. An id whose
// last valid record is an admission is an orphan: the scheduler died (or
// lost power) before the job's terminal record became durable, and a
// restarted scheduler re-adopts it. Beside the journal the root holds the
// generation log, `<root>/generations.log` (every job's checkpoint frames,
// rt::GenerationLog), and a quarantined job's
// `<root>/<id>/QUARANTINE_repro.json`.

#include <map>
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

// Whole-file text IO: the write is atomic (tmp + fsync + rename) via
// rt::write_bytes_atomic. read_text_file throws std::runtime_error if the
// file cannot be opened.
void write_text_file_atomic(const std::string& path, const std::string& text);
std::string read_text_file(const std::string& path);
bool file_exists(const std::string& path);

// One valid journal line.
struct JournalRecord {
  char kind = 'A';  // 'A' admission (body: the spec), 'T' terminal (state + detail)
  std::string id;
  std::string body;
};

// The append-only record journal of one durable root. Only the scheduler's
// coordinating thread appends. Appends reach the file at once (a killed
// process keeps them); sync() makes them durable against power loss, and
// the scheduler calls it before every attempt wave and before run()
// returns — group commit: one fdatasync covers every record appended since
// the last one.
class JobJournal {
 public:
  static constexpr const char* kFileName = "jobs.log";

  // Opens nothing until the first append. Before the first append to an
  // existing journal, a torn tail (bytes after the last newline, left by a
  // power loss mid-append) is truncated away, so a new record never joins a
  // torn one.
  explicit JobJournal(std::string root);
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  // Throw std::runtime_error when the journal cannot be opened or written.
  void append_admission(const JobSpec& spec);
  void append_terminal(const std::string& id, TerminalState state, const std::string& detail);
  // fdatasync when anything was appended since the last sync, plus one
  // fsync of the root when this journal created the file. Counted in
  // `ckpt.fsyncs` and `ckpt.fsync_seconds`. Throws rt::CheckpointError
  // when the sync fails.
  void sync();

  // Every valid record of `root`'s journal, in file order (none when there
  // is no journal). Lines whose trailer does not match — a torn tail, a
  // damaged line — are skipped and counted in `*damaged`.
  static std::vector<JournalRecord> read(const std::string& root, int* damaged = nullptr);
  // The last valid record of each id, by id.
  static std::map<std::string, JournalRecord> latest(const std::string& root,
                                                      int* damaged = nullptr);

 private:
  void append(char kind, const std::string& id, const std::string& body);

  std::string root_;
  int fd_ = -1;
  bool dirty_ = false;      // appended (or truncated) since the last sync
  bool new_entry_ = false;  // created the file: the root's fsync is pending
};

}  // namespace finch::svc

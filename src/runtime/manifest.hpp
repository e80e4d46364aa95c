#pragma once
// Run manifest: the run state a fresh process needs, beyond the fields, to
// continue a durable job bit-exactly.
//
// Every durable checkpoint generation carries one in its image's manifest
// section (runtime/checkpoint.hpp): a hash of the problem configuration (so a
// resume against the wrong scenario is refused, not silently wrong), the
// solver and its part count, the generation's step and sequence number, the
// injector seed and its full counter/event state (the fault draw sequence
// resumes exactly where the killed process left it), and — when the run
// drained on a cancel or deadline — the reason. Because the manifest and the
// state share one file and one atomic commit, a resume that falls back to an
// older generation also falls back to that generation's injector state.
//
// The text form is JSON with a trailing FNV-1a checksum line, so a reader
// either gets a complete, verified document or a named CheckpointError
// ("manifest truncated", "manifest checksum mismatch") — never a half-written
// one.
//
// write_manifest_atomic/read_manifest keep the older standalone sidecar form
// (`manifest.json` next to the generation files) that the benchmark's
// checkpoint probe still times; durable runs no longer write it.

#include <cstdint>
#include <string>
#include <vector>

#include "fault.hpp"

namespace finch::rt {

struct RunManifest {
  uint64_t config_hash = 0;    // hash of scenario + discretization (resume guard)
  uint64_t injector_seed = 0;  // 0 when the run had no injector
  std::string solver;          // "cell" | "band" | "mgpu"
  int nparts = 0;              // informational: resume may use any M (N-to-M)
  int64_t last_step = 0;       // step of the generation
  int64_t saves = 0;           // sequence number of the generation
  // Sidecar form only: generation file paths, newest first. Empty inside a
  // generation, whose directory is the record of its siblings.
  std::vector<std::string> checkpoints;
  std::vector<FaultCounter> injector_counters;
  std::vector<FaultEvent> injector_events;
  std::string cancel_reason;   // non-empty when the run drained on cancel/deadline
};

// JSON text with the trailing `#fnv1a:<hex>` checksum line.
std::string manifest_to_json(const RunManifest& m);
// Strict parse + checksum verification; throws CheckpointError naming the
// failure ("manifest truncated ...", "manifest checksum mismatch", or the
// parse error wrapped as "manifest unreadable: ...").
RunManifest manifest_from_json(std::string_view text);

// Standalone sidecar: atomic write via the checkpoint commit protocol (tmp +
// fsync + rename).
void write_manifest_atomic(const std::string& path, const RunManifest& m);
// Reads and verifies; throws CheckpointError when missing, torn or corrupt.
RunManifest read_manifest(const std::string& path);

}  // namespace finch::rt

#pragma once
// Versioned, checksummed snapshot/restore of solver state.
//
// A Snapshot is an ordered list of named double arrays plus the step index it
// was taken at. Serialization is a raw little-endian binary image with a
// magic/version header, a per-field FNV-1a checksum after each field's
// payload, an optional run-manifest section, and a trailing FNV-1a checksum
// over everything before it, so a restore either reproduces the saved state
// bit-for-bit or throws CheckpointError — silently restoring from a torn or
// corrupted image is the one failure mode a resilience layer must never have.
// The per-field checksums exist for diagnosis: a truncated or corrupted image
// names the field (index and name) where the damage sits instead of a bare
// "checksum mismatch", which is what separates "the file lost its tail" from
// "field 2 ('Io') took a bit flip" in a post-mortem.
//
// Image v3 layout (all integers u64):
//
//   magic | version | step
//   field count | per field: name length, name, element count, doubles, FNV
//   manifest length | manifest text (manifest_to_json, its own #fnv1a
//                     trailer; length 0 when the image carries none)
//   FNV over every byte before it
//
// The manifest section is what makes a durable generation self-contained: the
// run state a restarted process needs (config hash, solver, injector counters
// and event log, drain reason — runtime/manifest.hpp) lives in the same file
// as the fields, so the state and the injector state it resumes with can never
// come from different generations.
//
// CheckpointStore keeps the latest image in memory (fast rollback path) plus
// the previous generation — the fallback the hardened restore path drops to
// when every read of the newest image arrives corrupted — and can mirror
// saves to disk for restart across processes. Disk writes go through a .tmp
// sibling + atomic rename, so a crash mid-write never destroys the previous
// complete image. In durable mode every committed save is one
// `checkpoint_<seq>.bin` file, and find_latest_generation() is the one way a
// restarted process finds what to resume from. CheckpointPolicy is the
// periodic-interval schedule the solvers consult.
//
// Topology independence: snapshots carry no rank/device structure. The
// distributed solvers serialize their state in a canonical *global* layout
// ("I" [cells × dirs × bands, dof-major], "T" [cells], "Io"/"beta"
// [cells × bands]), so an image taken at N ranks restores onto any M
// survivors — the N-to-M restart behind elastic shrink recovery — and is even
// interchangeable between the cell-, band- and device-partitioned solvers.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "manifest.hpp"

namespace finch::rt {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Bitwise FNV-1a over the raw bytes of the doubles: NaN payloads, signed
// zeros and infinities all hash distinctly, so any corruption is visible.
uint64_t fnv1a64(std::span<const std::byte> bytes);
uint64_t checksum_doubles(std::span<const double> data);

// Scans for NaN/Inf; reports the first offending index through `first_bad`.
bool all_finite(std::span<const double> data, size_t* first_bad = nullptr);

struct Snapshot {
  int64_t step = 0;
  std::vector<std::pair<std::string, std::vector<double>>> fields;

  void add(std::string name, std::span<const double> data) {
    fields.emplace_back(std::move(name), std::vector<double>(data.begin(), data.end()));
  }
  const std::vector<double>& field(std::string_view name) const;
  bool has(std::string_view name) const;
};

// `manifest` non-null: the image carries it in its manifest section.
std::vector<std::byte> serialize(const Snapshot& snap, const RunManifest* manifest = nullptr);
// Throws CheckpointError on bad magic, unsupported version, truncation, or
// checksum mismatch. Truncation and payload corruption name the field or
// section where parsing or verification failed ("truncated in field 2
// ('Io')", "truncated in manifest section"); only header/metadata damage
// falls through to the generic trailing-checksum mismatch. With `manifest`
// non-null the image must carry one, which is parsed into it.
Snapshot deserialize(std::span<const std::byte> bytes, RunManifest* manifest = nullptr);

struct CheckpointPolicy {
  int interval = 16;  // checkpoint every `interval` completed steps; <= 0: never
  bool due(int64_t steps_completed) const {
    return interval > 0 && steps_completed > 0 && steps_completed % interval == 0;
  }
};

// Crash-safe byte-image write: stream into a `.tmp` sibling, flush + fsync,
// atomically rename over the destination, fsync the parent directory. A crash
// at any point leaves either the previous complete file or the new one at
// `path` — never a torn or missing one. Shared by checkpoint generations and
// the job service's records. Each call counts in `ckpt.atomic_writes`, each
// fsync (data and directory) in `ckpt.fsyncs` and `ckpt.fsync_seconds`.
void write_bytes_atomic(const std::string& path, std::span<const std::byte> image);
// Whole-file read; throws CheckpointError when the file cannot be opened.
std::vector<std::byte> read_bytes_file(const std::string& path);

// Hook into the atomic-write commit protocol, for the crash harness: invoked
// once after the `.tmp` sibling is written+fsynced (rename still pending) and
// once after the rename lands. bench_durability's child processes SIGKILL
// themselves from inside this window to prove a crash mid-checkpoint-write
// can never lose the previous generation. Pass nullptr to clear. Test-only;
// process-global, not thread-safe.
enum class CommitPhase { AfterTmpWrite, AfterRename };
using CommitHook = std::function<void(const std::string& path, CommitPhase phase)>;
void set_checkpoint_commit_hook(CommitHook hook);

// The newest readable generation of a durable directory: what a restarted
// run resumes from (find_latest_generation).
struct Generation {
  std::string path;                    // its checkpoint_<seq>.bin
  std::vector<std::byte> image;        // the verified file bytes
  Snapshot state;
  RunManifest manifest;                // the run state the image carries
  // Older readable generations of the same run (same solver and config
  // hash, no later step), newest first: the fallbacks a resumed store keeps.
  std::vector<std::string> fallbacks;
  int skipped = 0;  // newer generation files passed over as unreadable
};

// Scans `dir` for `checkpoint_<seq>.bin` files (`.tmp` leftovers and other
// names are ignored) and reads them newest first. Returns nullopt when there
// is no generation file at all — the run starts at step 0, which its spec
// regenerates exactly. Throws CheckpointError naming the newest failure when
// every generation file is unreadable, or carries no run manifest: a
// directory of damaged state must never be mistaken for a fresh start.
std::optional<Generation> find_latest_generation(const std::string& dir);

class CheckpointStore {
 public:
  // `dir` empty: in-memory only. Otherwise saves are mirrored to disk:
  // `disk_generations` 0 keeps the single `<dir>/checkpoint.bin` mirror;
  // >= 1 is the durable mode — each save lands in a fresh
  // `<dir>/checkpoint_<seq>.bin` (an already-committed generation is never
  // rewritten, so a crash mid-save cannot touch it), numbered past every
  // generation file already in `dir`, and the oldest file beyond the
  // retention count is deleted.
  explicit CheckpointStore(std::string dir = "", int disk_generations = 0);

  // Commits `snap`, carrying `manifest` when given (the store stamps the
  // generation's step and sequence number into it).
  void save(const Snapshot& snap, const RunManifest* manifest = nullptr);
  // Makes `snap` the newest generation in memory only, with no file: for
  // state the caller can regenerate exactly (a run's step 0). Throws
  // std::logic_error once a generation is on disk — a memory-only generation
  // is always the oldest. Takes no sequence number.
  void hold(const Snapshot& snap);
  // Continues a durable run from `gen`: its image becomes the newest
  // generation, in memory and backed by the file it was read from, with the
  // generation's fallbacks behind it. Writes nothing.
  void resume(const Generation& gen);
  bool has_checkpoint() const { return generations() > 0; }
  int64_t latest_step() const { return latest_step_; }
  int64_t bytes_stored() const { return latest_bytes_; }
  // Sequence number of the newest save().
  int64_t saves() const { return saves_; }
  // Deserializes (and checksum-validates) the most recent image.
  Snapshot load_latest() const;

  // ---- generations (cross-fault restore fallback) --------------------------
  //
  // save() rotates the previous latest image into a second in-memory
  // generation, so a restore whose every read of the newest image is
  // corrupted can fall back one checkpoint (older step, more replay, still
  // bit-exact). Generation 0 is the newest. In durable mode the on-disk
  // files extend the same numbering (disk_paths()[g] backs generation g), and
  // memory is only a cache: a generation dropped by the resource-relief path
  // is re-read from its file. A held generation has no file.
  int generations() const;
  // Deserializes generation `g` (0 = newest).
  Snapshot load(int generation) const;
  // Copy of generation `g`'s raw image: callers model in-flight corruption on
  // the copy (FaultInjector::flip_raw_bit) without poisoning the store.
  std::vector<std::byte> image_copy(int generation) const;

  // ---- durable mode (rt::MemoryBudget relief) -------------------------------
  //
  // On-disk generation files, newest first.
  const std::vector<std::string>& disk_paths() const { return disk_paths_; }
  // Graceful-degradation reliefs, in increasing severity; each returns the
  // bytes freed (0 when nothing could be freed safely — a generation is only
  // dropped from memory when a disk file still backs it).
  int64_t drop_previous_generation();
  int64_t spill();

  static void write_file(const std::string& path, const Snapshot& snap);
  static Snapshot read_file(const std::string& path);

 private:
  std::string dir_;
  int disk_generations_ = 0;
  std::vector<std::byte> image_;
  std::vector<std::byte> prev_image_;
  std::vector<std::string> disk_paths_;  // newest first
  int64_t latest_step_ = 0;
  int64_t latest_bytes_ = 0;
  int64_t saves_ = 0;
};

}  // namespace finch::rt

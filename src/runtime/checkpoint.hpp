#pragma once
// Versioned, checksummed snapshot/restore of solver state.
//
// A Snapshot is an ordered list of named double arrays plus the step index it
// was taken at. Serialization is a raw little-endian binary image with a
// magic/version header, a per-field checksum after each field's payload, an
// optional run-manifest section, and a trailing checksum over everything
// before it, so a restore either reproduces the saved state bit-for-bit or
// throws CheckpointError — silently restoring from a torn or corrupted image
// is the one failure mode a resilience layer must never have. The per-field
// checksums exist for diagnosis: a truncated or corrupted image names the
// field (index and name) where the damage sits instead of a bare "checksum
// mismatch", which is what separates "the file lost its tail" from "field 2
// ('Io') took a bit flip" in a post-mortem.
//
// Image v4 layout (all integers u64; every section is whole 8-byte words):
//
//   magic | version | step
//   field count | per field: name length, name (zero-padded to a word),
//                            element count, doubles, field digest
//   manifest length | manifest text (manifest_to_json, its own #fnv1a
//                     trailer; zero-padded to a word; length 0 when the
//                     image carries none)
//   trailer: digest of every word before it
//
// Both checksums are digest_words (one 64-bit step per word, hash.hpp), the
// digest every integrity check uses (the ABFT block checksums too): a
// field's digest covers its doubles, the trailer covers every word of the
// image, and one read of each payload forms both. v2 and v3 images (the
// byte-at-a-time FNV-1a layout) are refused by version.
//
// The manifest section is what makes a durable generation self-contained: the
// run state a restarted process needs (config hash, solver, injector counters
// and event log, drain reason — runtime/manifest.hpp) lives in the same file
// as the fields, so the state and the injector state it resumes with can never
// come from different generations.
//
// CheckpointStore keeps the latest image in memory (fast rollback path) plus
// the previous generation — the fallback the hardened restore path drops to
// when every read of the newest image arrives corrupted — and, when durable,
// appends every save as one frame to a GenerationLog for restart across
// processes. The log is append-only, so a crash mid-append never touches an
// earlier frame, and find_latest_generation() is the one way a restarted
// process finds what to resume from. CheckpointPolicy is the
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
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash.hpp"
#include "manifest.hpp"

namespace finch::rt {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

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
// `path` — never a torn or missing one. The job service's quarantine repros
// and the standalone manifest sidecar use it; checkpoint generations are log
// frames. Each call counts in `ckpt.atomic_writes`, each fsync (data and
// directory) in `ckpt.fsyncs` and `ckpt.fsync_seconds`.
void write_bytes_atomic(const std::string& path, std::span<const std::byte> image);
// Whole-file read; throws CheckpointError when the file cannot be opened.
std::vector<std::byte> read_bytes_file(const std::string& path);

// The one counted fsync: flushes open file `fd` to stable storage
// (fdatasync where the platform has it when `data_only`), adding one to
// `ckpt.fsyncs` and its wall time to `ckpt.fsync_seconds`. Returns false
// when the sync failed. write_bytes_atomic, the generation log and the job
// journal's group commit all go through it.
bool sync_fd(int fd, bool data_only);
// fsync of directory `path`, which makes entries created in it durable.
// Best effort like write_bytes_atomic's: a directory that cannot be synced
// bumps `ckpt.dir_fsync_soft_fail`.
void sync_directory(const std::string& path);

// Hook into the generation log's commit points, for the crash harnesses:
// invoked after a frame's bytes are written (`what` names the frame; its
// sync is still pending) and after a sync of the log returns (`what` is the
// log's path). A SIGKILL at either point keeps the frame: the page cache
// survives the process. Appends from several threads call it one at a time.
// Pass nullptr to clear. Test-only; process-global.
enum class CommitPhase { AfterAppend, AfterSync };
using CommitHook = std::function<void(const std::string& what, CommitPhase phase)>;
void set_checkpoint_commit_hook(CommitHook hook);

// One append-only file of checkpoint frames per durable directory,
// `<dir>/generations.log`. A frame is a six-word header
//
//   magic | run key | sequence | step | image length | header digest
//
// followed by the v4 image, which its own digests seal. The run key is the
// FNV-1a hash of the run's name: a job id under the job scheduler, "" for a
// directory's own run. Frames are named by (run, sequence), never by
// offset, so a compaction that moves them leaves every name valid.
//
// An appended frame is readable at once by every reader of this object and
// survives a kill (the page cache keeps it); it survives power loss once
// sync() returns. Who calls sync() follows from who owns the log: the job
// scheduler syncs its root's log with its job journal once per attempt wave,
// a CheckpointStore that opens its own log syncs after each save.
//
// The object opens nothing until it must. A run's lookups see the frames
// this object appended; an existing file gets one header-only scan (pread
// of each header, never the whole file), when an adopted run first asks or
// before the first append, which truncates a torn tail left by a crash
// mid-append. A header whose digest fails is skipped by resyncing at the
// next magic word (counted in `ckpt.log.damaged_frames`).
//
// Retention is compaction at a sync point. The live frames are each run's
// newest `keep` (an adopted run's scanned frames all count until it
// appends); frames an earlier process left under a run this object did not
// adopt are garbage, and a retired run (its terminal record durable) has
// none. When the rest exceeds both kCompactRatio × the live bytes and
// kCompactMinBytes, sync() rewrites the live frames to a new file, syncs it,
// renames it over the log and syncs the directory (`ckpt.log.compactions`).
//
// Every member takes the log's lock: attempts on several threads append and
// read while the owner syncs. One object writes a file at a time.
class GenerationLog {
 public:
  static constexpr const char* kFileName = "generations.log";
  static constexpr uint64_t kCompactRatio = 4;
  static constexpr uint64_t kCompactMinBytes = uint64_t{64} << 20;
  static constexpr size_t kHeaderBytes = 6 * 8;

  struct Frame {
    int64_t seq = 0;
    int64_t step = 0;
    uint64_t offset = 0;  // of its header in the current file
    uint64_t length = 0;  // image bytes after the header
    bool scanned = false; // found in the file, not appended by this object
  };

  // `keep` >= 1: the frames per run compaction keeps (the stores'
  // disk_generations).
  GenerationLog(std::string dir, int keep);
  ~GenerationLog();
  GenerationLog(const GenerationLog&) = delete;
  GenerationLog& operator=(const GenerationLog&) = delete;

  const std::string& path() const { return path_; }
  // Display name of frame (run, seq): `<path>#<seq>` for the directory's own
  // run, `<path>#<run>:<seq>` for a named one.
  std::string frame_name(std::string_view run, int64_t seq) const;

  // The run continues from an earlier process: its lookups include the
  // frames the file already holds.
  void adopt(std::string_view run);
  // The run's terminal record is durable by the next sync: from then on its
  // frames are garbage and its lookups find nothing.
  void retire(std::string_view run);

  // Appends one frame. Throws CheckpointError when the log cannot be
  // created or written.
  void append(std::string_view run, int64_t seq, int64_t step, std::span<const std::byte> image);
  // The run's live frames, newest (last appended) first.
  std::vector<Frame> frames(std::string_view run);
  // Highest sequence number among the run's frames (0: none).
  int64_t last_seq(std::string_view run);
  // The image of frame (run, seq), read with pread. Throws CheckpointError
  // when no such frame is live, it is torn (runs past the end of the file)
  // or its header no longer matches.
  std::vector<std::byte> read(std::string_view run, int64_t seq);

  // One fdatasync when anything was appended or truncated since the last
  // sync (plus one directory fsync when this object created the file), then
  // the pending retirements, then compaction when compaction_due(). Throws
  // CheckpointError when a sync fails.
  void sync();
  // Rewrites the live frames to a new log now (sync() calls it when due).
  void compact();
  static bool compaction_due(uint64_t garbage_bytes, uint64_t live_bytes) {
    return garbage_bytes > kCompactRatio * live_bytes && garbage_bytes > kCompactMinBytes;
  }
  uint64_t file_bytes();  // current length of the file (0: none)
  uint64_t live_bytes();  // headers + images of the live frames

 private:
  struct Run {
    std::vector<Frame> frames;  // file order
    bool adopted = false;
  };
  bool open_locked();
  void create_locked();
  void scan_locked();
  void cut_torn_tail_locked();
  void compact_locked();
  uint64_t live_bytes_locked() const;
  const Frame* find_locked(uint64_t key, int64_t seq);

  std::string dir_;
  std::string path_;
  int keep_;
  std::mutex mu_;
  int fd_ = -1;                // open once the file's frames are indexed
  uint64_t size_ = 0;          // file length as this object knows it
  uint64_t complete_ = 0;      // end of the last complete frame the scan found
  bool tail_checked_ = false;  // the torn tail is cut: appends may go
  bool dirty_ = false;         // appended or truncated since the last sync
  bool new_entry_ = false;     // created the file: the directory's fsync is pending
  std::unordered_map<uint64_t, Run> runs_;
  std::vector<uint64_t> pending_retire_;
};

// The newest readable generation of a run: what a restarted run resumes
// from (find_latest_generation).
struct Generation {
  std::string name;             // its frame's display name (GenerationLog::frame_name)
  int64_t seq = 0;              // its sequence number within the run
  std::vector<std::byte> image; // the verified image bytes
  Snapshot state;
  RunManifest manifest;         // the run state the image carries
  // Older readable frames of the same run (same solver and config hash, no
  // later step), newest first, by sequence number: the fallbacks a resumed
  // store keeps.
  std::vector<int64_t> fallbacks;
  int skipped = 0;  // newer frames of the run passed over as unreadable
};

// Reads `run`'s frames of `log` newest first (adopting the run, so frames an
// earlier process left count). Returns nullopt when the run has no frame —
// it starts at step 0, which its spec regenerates exactly. Throws
// CheckpointError naming the newest failure when every frame of the run is
// unreadable (torn ones included) or carries no run manifest: damaged state
// must never be mistaken for a fresh start.
std::optional<Generation> find_latest_generation(GenerationLog& log, std::string_view run);
// The same over `dir`'s log, for a directory's own run by default. A
// missing directory or log holds no frame.
std::optional<Generation> find_latest_generation(const std::string& dir,
                                                 std::string_view run = {});

class CheckpointStore {
 public:
  // `dir` empty: in-memory only. Otherwise the store is durable on `dir`'s
  // own generation log: each save appends one frame, numbered past the
  // frames of the directory's run already there, and syncs it before save()
  // returns. Frames beyond the newest `disk_generations` are garbage for the
  // log's compaction. Throws std::invalid_argument for a directory with
  // fewer than one generation.
  explicit CheckpointStore(std::string dir = "", int disk_generations = 1);
  // Durable on a shared log under `run`: each save appends one frame and
  // the log's owner makes it durable (the job scheduler's wave sync).
  CheckpointStore(GenerationLog* log, std::string run, int disk_generations);

  // Commits `snap`, carrying `manifest` when given (the store stamps the
  // generation's step and sequence number into it).
  void save(const Snapshot& snap, const RunManifest* manifest = nullptr);
  // Makes `snap` the newest generation in memory only, with no frame: for
  // state the caller can regenerate exactly (a run's step 0). Throws
  // std::logic_error once a generation is on disk — a memory-only generation
  // is always the oldest. Takes no sequence number.
  void hold(const Snapshot& snap);
  // Continues a durable run from `gen`: its image becomes the newest
  // generation, in memory and backed by the frame it was read from, with the
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
  // bit-exact). Generation 0 is the newest. In durable mode the log's frames
  // extend the same numbering (disk_paths()[g] names generation g's frame),
  // and memory is only a cache: a generation dropped by the resource-relief
  // path is re-read from its frame. A held generation has no frame.
  int generations() const;
  // Deserializes generation `g` (0 = newest).
  Snapshot load(int generation) const;
  // Copy of generation `g`'s raw image: callers model in-flight corruption on
  // the copy (FaultInjector::flip_raw_bit) without poisoning the store.
  std::vector<std::byte> image_copy(int generation) const;

  // ---- durable mode (rt::MemoryBudget relief) -------------------------------
  //
  // Names of the frames backing the generations, newest first.
  std::vector<std::string> disk_paths() const;
  // The log the store appends to (null: in memory only).
  GenerationLog* log() const { return log_; }
  // Graceful-degradation reliefs, in increasing severity; each returns the
  // bytes freed (0 when nothing could be freed safely — a generation is only
  // dropped from memory when a frame still backs it).
  int64_t drop_previous_generation();
  int64_t spill();

  static void write_file(const std::string& path, const Snapshot& snap);
  static Snapshot read_file(const std::string& path);

 private:
  std::unique_ptr<GenerationLog> own_log_;  // opened from `dir`: synced after each save
  GenerationLog* log_ = nullptr;
  std::string run_;
  int disk_generations_ = 0;
  std::vector<std::byte> image_;
  std::vector<std::byte> prev_image_;
  std::vector<int64_t> disk_seqs_;  // newest first
  int64_t latest_step_ = 0;
  int64_t latest_bytes_ = 0;
  int64_t saves_ = 0;
};

}  // namespace finch::rt

#include "checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define FINCH_HAVE_FSYNC 1
#endif

namespace finch::rt {

namespace {

constexpr uint64_t kMagic = 0x46434e4b50543031ULL;  // "FCNKPT01"
// v2: a per-field FNV-1a checksum follows each field's payload, so load
// failures name the damaged field instead of a bare image-level mismatch.
// v3: a run-manifest section follows the fields, so a durable generation is
// one self-contained file.
constexpr uint32_t kVersion = 3;

void put_u64(std::vector<std::byte>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
}

uint64_t get_u64(std::span<const std::byte> bytes, size_t& off) {
  if (off + 8 > bytes.size()) throw CheckpointError("checkpoint truncated");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(bytes[off + static_cast<size_t>(i)]) << (8 * i);
  off += 8;
  return v;
}

}  // namespace

uint64_t fnv1a64(std::span<const std::byte> bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    h ^= static_cast<uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t checksum_doubles(std::span<const double> data) {
  return fnv1a64(std::as_bytes(data));
}

bool all_finite(std::span<const double> data, size_t* first_bad) {
  for (size_t i = 0; i < data.size(); ++i)
    if (!std::isfinite(data[i])) {
      if (first_bad != nullptr) *first_bad = i;
      return false;
    }
  return true;
}

const std::vector<double>& Snapshot::field(std::string_view name) const {
  for (const auto& [n, v] : fields)
    if (n == name) return v;
  throw CheckpointError("snapshot has no field named '" + std::string(name) + "'");
}

bool Snapshot::has(std::string_view name) const {
  for (const auto& [n, v] : fields)
    if (n == name) return true;
  return false;
}

std::vector<std::byte> serialize(const Snapshot& snap, const RunManifest* manifest) {
  std::vector<std::byte> out;
  put_u64(out, kMagic);
  put_u64(out, kVersion);
  put_u64(out, static_cast<uint64_t>(snap.step));
  put_u64(out, static_cast<uint64_t>(snap.fields.size()));
  for (const auto& [name, data] : snap.fields) {
    put_u64(out, static_cast<uint64_t>(name.size()));
    for (char c : name) out.push_back(static_cast<std::byte>(c));
    put_u64(out, static_cast<uint64_t>(data.size()));
    const auto raw = std::as_bytes(std::span<const double>(data));
    out.insert(out.end(), raw.begin(), raw.end());
    put_u64(out, fnv1a64(raw));  // per-field checksum: names the damage on load
  }
  const std::string text = manifest != nullptr ? manifest_to_json(*manifest) : std::string();
  put_u64(out, static_cast<uint64_t>(text.size()));
  for (char c : text) out.push_back(static_cast<std::byte>(c));
  put_u64(out, fnv1a64(out));
  return out;
}

Snapshot deserialize(std::span<const std::byte> bytes, RunManifest* manifest) {
  if (bytes.size() < 8 * 6) throw CheckpointError("checkpoint truncated (no complete header)");

  size_t off = 0;
  if (get_u64(bytes, off) != kMagic) throw CheckpointError("not a checkpoint image (bad magic)");
  const uint64_t version = get_u64(bytes, off);
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " + std::to_string(version));
  Snapshot snap;
  snap.step = static_cast<int64_t>(get_u64(bytes, off));
  const uint64_t nfields = get_u64(bytes, off);
  snap.fields.reserve(nfields);
  // The structural walk runs before the trailing whole-image checksum so a
  // torn or corrupted image names the field where the damage sits — "field 2
  // ('Io')" — instead of a bare mismatch; only header/metadata corruption the
  // walk cannot localize falls through to the trailing check.
  for (uint64_t f = 0; f < nfields; ++f) {
    const auto field_error = [f](const std::string& name, const std::string& what) {
      const std::string label =
          name.empty() ? "field " + std::to_string(f)
                       : "field " + std::to_string(f) + " ('" + name + "')";
      return CheckpointError("checkpoint " + what + " in " + label);
    };
    if (off + 8 > bytes.size()) throw field_error("", "truncated (no name length)");
    const uint64_t name_len = get_u64(bytes, off);
    if (name_len > bytes.size() - off) throw field_error("", "truncated (name unreadable)");
    std::string name(name_len, '\0');
    std::memcpy(name.data(), bytes.data() + off, name_len);
    off += name_len;
    if (off + 8 > bytes.size()) throw field_error(name, "truncated (no element count)");
    const uint64_t count = get_u64(bytes, off);
    // Division avoids the count*8 overflow a hand-crafted header could use to
    // slip past the bound and read out of the buffer.
    if (count > (bytes.size() - off) / sizeof(double))
      throw field_error(name, "truncated (payload exceeds remaining bytes)");
    std::vector<double> data(count);
    std::memcpy(data.data(), bytes.data() + off, count * sizeof(double));
    const auto payload = bytes.subspan(off, count * sizeof(double));
    off += count * sizeof(double);
    if (off + 8 > bytes.size()) throw field_error(name, "truncated (no field checksum)");
    if (get_u64(bytes, off) != fnv1a64(payload))
      throw field_error(name, "checksum mismatch");
    snap.fields.emplace_back(std::move(name), std::move(data));
  }
  if (off + 16 > bytes.size())
    throw CheckpointError("checkpoint truncated after field " + std::to_string(nfields) +
                          " (missing manifest length or trailing checksum)");
  const uint64_t manifest_len = get_u64(bytes, off);
  // The section must leave room for the trailing checksum.
  if (manifest_len > bytes.size() - off - 8)
    throw CheckpointError("checkpoint truncated in manifest section (length " +
                          std::to_string(manifest_len) + " overruns the image)");
  if (manifest != nullptr) {
    if (manifest_len == 0) throw CheckpointError("checkpoint carries no run manifest");
    // The manifest text checks its own trailer, so damage to it is named
    // here rather than as a bare image mismatch.
    *manifest = manifest_from_json(
        std::string_view(reinterpret_cast<const char*>(bytes.data() + off), manifest_len));
  }
  const uint64_t stored = fnv1a64(bytes.subspan(0, bytes.size() - 8));
  size_t tail = bytes.size() - 8;
  if (get_u64(bytes, tail) != stored)
    throw CheckpointError("checkpoint checksum mismatch (header or metadata corrupted)");
  return snap;
}

namespace {

#ifdef FINCH_HAVE_FSYNC
// Flushes a file's (or directory's) kernel buffers to stable storage. The
// directory fsync is what makes the rename itself durable: without it a power
// loss can roll the directory entry back to the old image even though the new
// file's data reached the disk. Directory fsync failures are best-effort
// (some filesystems refuse directory fds) but never silent: each one bumps
// `ckpt.dir_fsync_soft_fail` so a fleet quietly losing rename durability is
// visible in the metrics dump. Every fsync issued counts in `ckpt.fsyncs`
// and its wall time in `ckpt.fsync_seconds`.
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    if (!directory) throw CheckpointError("cannot reopen for fsync: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
    return;
  }
  static Counter& fsyncs = MetricsRegistry::global().counter("ckpt.fsyncs");
  static Counter& fsync_seconds = MetricsRegistry::global().counter("ckpt.fsync_seconds");
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = ::fsync(fd);
  fsync_seconds.add(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  fsyncs.add(1.0);
  ::close(fd);
  if (rc != 0) {
    if (!directory) throw CheckpointError("fsync failed: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
  }
}

std::string parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}
#endif

CommitHook g_commit_hook;  // crash-harness window hook; see checkpoint.hpp

constexpr std::string_view kGenerationPrefix = "checkpoint_";
constexpr std::string_view kGenerationSuffix = ".bin";

std::string generation_path(const std::string& dir, int64_t seq) {
  return dir + "/" + std::string(kGenerationPrefix) + std::to_string(seq) +
         std::string(kGenerationSuffix);
}

// The `checkpoint_<seq>.bin` files of `dir` as (seq, path), newest (highest
// seq) first. Any other name — `.tmp` leftovers of a torn commit included —
// is not a generation. A missing directory holds none.
std::vector<std::pair<int64_t, std::string>> list_generations(const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= kGenerationPrefix.size() + kGenerationSuffix.size() ||
        !name.starts_with(kGenerationPrefix) || !name.ends_with(kGenerationSuffix))
      continue;
    const std::string_view digits = std::string_view(name).substr(
        kGenerationPrefix.size(), name.size() - kGenerationPrefix.size() - kGenerationSuffix.size());
    if (digits.size() > 18 ||
        !std::all_of(digits.begin(), digits.end(), [](char c) { return c >= '0' && c <= '9'; }))
      continue;
    found.emplace_back(std::stoll(std::string(digits)), dir + "/" + name);
  }
  std::sort(found.begin(), found.end(), std::greater<>());
  return found;
}

}  // namespace

void set_checkpoint_commit_hook(CommitHook hook) { g_commit_hook = std::move(hook); }

void write_bytes_atomic(const std::string& path, std::span<const std::byte> image) {
  static Counter& atomic_writes = MetricsRegistry::global().counter("ckpt.atomic_writes");
  atomic_writes.add(1.0);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CheckpointError("cannot open for writing: " + tmp);
    os.write(reinterpret_cast<const char*>(image.data()),
             static_cast<std::streamsize>(image.size()));
    os.flush();
    if (!os) throw CheckpointError("short write to " + tmp);
  }
#ifdef FINCH_HAVE_FSYNC
  fsync_path(tmp, /*directory=*/false);
#endif
  if (g_commit_hook) g_commit_hook(path, CommitPhase::AfterTmpWrite);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot commit checkpoint to " + path);
  }
#ifdef FINCH_HAVE_FSYNC
  fsync_path(parent_dir(path), /*directory=*/true);
#endif
  if (g_commit_hook) g_commit_hook(path, CommitPhase::AfterRename);
}

std::vector<std::byte> read_bytes_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CheckpointError("cannot open checkpoint: " + path);
  const std::streamoff size = is.tellg();
  if (size < 0) throw CheckpointError("cannot size checkpoint: " + path);
  // Read straight into the result; an empty file yields an empty image, which
  // deserialize() rejects as truncated.
  std::vector<std::byte> bytes(static_cast<size_t>(size));
  is.seekg(0);
  if (!bytes.empty() && !is.read(reinterpret_cast<char*>(bytes.data()), size))
    throw CheckpointError("short read from checkpoint: " + path);
  return bytes;
}

std::optional<Generation> find_latest_generation(const std::string& dir) {
  const auto files = list_generations(dir);
  if (files.empty()) return std::nullopt;
  std::optional<Generation> found;
  int skipped = 0;
  std::string first_error;
  for (const auto& [seq, path] : files) {
    try {
      std::vector<std::byte> image = read_bytes_file(path);
      RunManifest manifest;
      Snapshot state = deserialize(image, &manifest);
      if (!found) {
        found = Generation{path, std::move(image), std::move(state), std::move(manifest), {}, skipped};
      } else if (manifest.solver == found->manifest.solver &&
                 manifest.config_hash == found->manifest.config_hash &&
                 state.step <= found->state.step) {
        found->fallbacks.push_back(path);
      }
    } catch (const CheckpointError& err) {
      if (found) continue;  // a damaged older file is simply not a fallback
      if (skipped++ == 0) first_error = err.what();
    }
  }
  if (!found)
    throw CheckpointError("no readable checkpoint generation in " + dir + ": all " +
                          std::to_string(skipped) + " unreadable, newest (" + files.front().second +
                          "): " + first_error);
  return found;
}

CheckpointStore::CheckpointStore(std::string dir, int disk_generations)
    : dir_(std::move(dir)), disk_generations_(std::max(0, disk_generations)) {
  if (dir_.empty() || disk_generations_ == 0) return;
  const auto files = list_generations(dir_);
  if (!files.empty()) saves_ = files.front().first;
}

void CheckpointStore::save(const Snapshot& snap, const RunManifest* manifest) {
  saves_ += 1;
  prev_image_ = std::move(image_);  // empty when generation 0 was spilled: disk backs it
  if (manifest != nullptr) {
    RunManifest stamped = *manifest;
    stamped.last_step = snap.step;
    stamped.saves = saves_;
    image_ = serialize(snap, &stamped);
  } else {
    image_ = serialize(snap);
  }
  latest_step_ = snap.step;
  latest_bytes_ = static_cast<int64_t>(image_.size());
  if (dir_.empty()) return;
  if (disk_generations_ == 0) {
    const std::string path = dir_ + "/checkpoint.bin";
    write_bytes_atomic(path, image_);
    disk_paths_.assign(1, path);
    return;
  }
  // Durable mode: a committed generation file is never rewritten, so a crash
  // inside this write (before or after the rename) cannot damage any prior
  // generation — the property the SIGKILL harness drives through the commit
  // hook above.
  const std::string path = generation_path(dir_, saves_);
  write_bytes_atomic(path, image_);
  disk_paths_.insert(disk_paths_.begin(), path);
  while (static_cast<int>(disk_paths_.size()) > disk_generations_) {
    std::remove(disk_paths_.back().c_str());
    disk_paths_.pop_back();
  }
}

void CheckpointStore::hold(const Snapshot& snap) {
  if (!disk_paths_.empty())
    throw std::logic_error("CheckpointStore::hold: a memory-only generation cannot be newer "
                           "than a committed one");
  prev_image_ = std::move(image_);
  image_ = serialize(snap);
  latest_step_ = snap.step;
  latest_bytes_ = static_cast<int64_t>(image_.size());
}

void CheckpointStore::resume(const Generation& gen) {
  prev_image_.clear();
  image_ = gen.image;
  latest_step_ = gen.state.step;
  latest_bytes_ = static_cast<int64_t>(image_.size());
  disk_paths_.assign(1, gen.path);
  disk_paths_.insert(disk_paths_.end(), gen.fallbacks.begin(), gen.fallbacks.end());
}

Snapshot CheckpointStore::load_latest() const {
  if (generations() == 0) throw CheckpointError("no checkpoint saved");
  return load(0);
}

Snapshot CheckpointStore::load(int generation) const { return deserialize(image_copy(generation)); }

int CheckpointStore::generations() const {
  // Memory holds generations 0 and 1; either may have been spilled to its
  // file, so the count is the highest slot still held, not the number held.
  const int mem = !prev_image_.empty() ? 2 : (image_.empty() ? 0 : 1);
  return std::max(mem, static_cast<int>(disk_paths_.size()));
}

std::vector<std::byte> CheckpointStore::image_copy(int generation) const {
  if (generation < 0 || generation >= generations())
    throw CheckpointError("no checkpoint generation " + std::to_string(generation) + " (have " +
                          std::to_string(generations()) + ")");
  if (generation == 0 && !image_.empty()) return image_;
  if (generation == 1 && !prev_image_.empty()) return prev_image_;
  // Spilled / dropped from memory: the disk file still backs the generation.
  return read_bytes_file(disk_paths_[static_cast<size_t>(generation)]);
}

int64_t CheckpointStore::drop_previous_generation() {
  // Only safe when an older disk file can still serve generation-1 fallback.
  if (prev_image_.empty() || disk_paths_.size() < 2) return 0;
  const int64_t freed = static_cast<int64_t>(prev_image_.capacity());
  prev_image_.clear();
  prev_image_.shrink_to_fit();
  return freed;
}

int64_t CheckpointStore::spill() {
  // The severe relief: keep in memory only what no disk file backs — a held
  // generation stays. Generation g is backed when disk_paths_[g] exists.
  const auto release = [](std::vector<std::byte>& image) {
    const int64_t freed = static_cast<int64_t>(image.capacity());
    image.clear();
    image.shrink_to_fit();
    return freed;
  };
  int64_t freed = 0;
  if (disk_paths_.size() >= 2 && !prev_image_.empty()) freed += release(prev_image_);
  if (!disk_paths_.empty() && !image_.empty()) freed += release(image_);
  return freed;
}

void CheckpointStore::write_file(const std::string& path, const Snapshot& snap) {
  write_bytes_atomic(path, serialize(snap));
}

Snapshot CheckpointStore::read_file(const std::string& path) {
  return deserialize(read_bytes_file(path));
}

}  // namespace finch::rt

#include "checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "metrics.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>

namespace finch::rt {

namespace {

constexpr uint64_t kMagic = 0x46434e4b50543031ULL;  // "FCNKPT01"
// v2: a per-field FNV-1a checksum follows each field's payload, so load
// failures name the damaged field instead of a bare image-level mismatch.
// v3: a run-manifest section follows the fields, so a durable generation is
// one self-contained file.
// v4: every section is whole words, and one word digest (digest_words) forms
// both the field checksums and the trailer in one read of each payload.
constexpr uint64_t kVersion = 4;

inline uint64_t load_word(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// Byte length rounded up to whole words: names and the manifest text are
// zero-padded so every section starts on a word.
constexpr size_t padded(size_t n) { return (n + 7) & ~size_t{7}; }

void put_u64_at(std::byte* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

uint64_t get_u64_at(const std::byte* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// Copies `n` words from `src` to `dst` and returns their digest (a field
// checksum), continuing `image` over the same words: one read of each word
// feeds both chains.
uint64_t copy_words(const std::byte* src, std::byte* dst, size_t n, uint64_t& image) {
  uint64_t field = kWordDigestSeed, img = image;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t w = load_word(src + 8 * i);
    std::memcpy(dst + 8 * i, &w, sizeof w);
    field = digest_step(field, w);
    img = digest_step(img, w);
  }
  image = img;
  return field;
}

// Writes an image front to back into storage sized for it (and zeroed, which
// is the padding). Every word written continues the trailer's chain `image`.
struct ImageWriter {
  std::byte* p;
  uint64_t image = kWordDigestSeed;

  void word(uint64_t v) {
    put_u64_at(p, v);
    image = digest_step(image, load_word(p));
    p += 8;
  }
  void text(std::string_view s) {
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    image = digest_words(std::span<const std::byte>(p, padded(s.size())), image);
    p += padded(s.size());
  }
  // Copies a payload and returns its field checksum.
  uint64_t payload(std::span<const double> data) {
    const uint64_t field =
        copy_words(reinterpret_cast<const std::byte*>(data.data()), p, data.size(), image);
    p += 8 * data.size();
    return field;
  }
};

// The reading side: the caller bounds-checks each section against left()
// before taking it, so the damage is named where it sits.
struct ImageReader {
  std::span<const std::byte> bytes;
  size_t off = 0;
  uint64_t image = kWordDigestSeed;

  size_t left() const { return bytes.size() - off; }
  uint64_t word() {
    const std::byte* p = bytes.data() + off;
    image = digest_step(image, load_word(p));
    off += 8;
    return get_u64_at(p);
  }
  std::string_view text(size_t len) {
    const std::string_view s(reinterpret_cast<const char*>(bytes.data() + off), len);
    image = digest_words(bytes.subspan(off, padded(len)), image);
    off += padded(len);
    return s;
  }
  uint64_t payload(std::span<double> out) {
    const uint64_t field = copy_words(bytes.data() + off, reinterpret_cast<std::byte*>(out.data()),
                                      out.size(), image);
    off += 8 * out.size();
    return field;
  }
};

}  // namespace

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
  const std::string text = manifest != nullptr ? manifest_to_json(*manifest) : std::string();
  size_t size = 8 * 4 + 8 + padded(text.size()) + 8;
  for (const auto& [name, data] : snap.fields)
    size += 8 * 3 + padded(name.size()) + 8 * data.size();
  std::vector<std::byte> out(size);
  ImageWriter w{out.data()};
  w.word(kMagic);
  w.word(kVersion);
  w.word(static_cast<uint64_t>(snap.step));
  w.word(static_cast<uint64_t>(snap.fields.size()));
  for (const auto& [name, data] : snap.fields) {
    w.word(static_cast<uint64_t>(name.size()));
    w.text(name);
    w.word(static_cast<uint64_t>(data.size()));
    w.word(w.payload(data));  // per-field checksum: names the damage on load
  }
  w.word(static_cast<uint64_t>(text.size()));
  w.text(text);
  put_u64_at(w.p, w.image);
  return out;
}

Snapshot deserialize(std::span<const std::byte> bytes, RunManifest* manifest) {
  if (bytes.size() < 8 * 6) throw CheckpointError("checkpoint truncated (no complete header)");

  ImageReader r{bytes};
  if (r.word() != kMagic) throw CheckpointError("not a checkpoint image (bad magic)");
  const uint64_t version = r.word();
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " + std::to_string(version));
  Snapshot snap;
  snap.step = static_cast<int64_t>(r.word());
  const uint64_t nfields = r.word();
  // A field takes at least three words, which bounds what a damaged count
  // can make us reserve.
  snap.fields.reserve(std::min<uint64_t>(nfields, r.left() / 24));
  // The structural walk checks each field's checksum as it goes, so a torn
  // or corrupted image names the field where the damage sits — "field 2
  // ('Io')" — instead of a bare mismatch; only header/metadata corruption the
  // walk cannot localize falls through to the trailing check.
  for (uint64_t f = 0; f < nfields; ++f) {
    const auto field_error = [f](const std::string& name, const std::string& what) {
      const std::string label =
          name.empty() ? "field " + std::to_string(f)
                       : "field " + std::to_string(f) + " ('" + name + "')";
      return CheckpointError("checkpoint " + what + " in " + label);
    };
    if (r.left() < 8) throw field_error("", "truncated (no name length)");
    const uint64_t name_len = r.word();
    if (name_len > r.left() || padded(name_len) > r.left())
      throw field_error("", "truncated (name unreadable)");
    std::string name(r.text(name_len));
    if (r.left() < 8) throw field_error(name, "truncated (no element count)");
    const uint64_t count = r.word();
    // Division avoids the count*8 overflow a hand-crafted header could use to
    // slip past the bound and read out of the buffer.
    if (count > r.left() / sizeof(double))
      throw field_error(name, "truncated (payload exceeds remaining bytes)");
    std::vector<double> data(count);
    const uint64_t sum = r.payload(data);
    if (r.left() < 8) throw field_error(name, "truncated (no field checksum)");
    if (r.word() != sum) throw field_error(name, "checksum mismatch");
    snap.fields.emplace_back(std::move(name), std::move(data));
  }
  if (r.left() < 8)
    throw CheckpointError("checkpoint truncated after field " + std::to_string(nfields) +
                          " (missing manifest length)");
  const uint64_t manifest_len = r.word();
  // The section must leave room for the trailing checksum.
  if (r.left() < 8 || manifest_len > r.left() - 8 || padded(manifest_len) > r.left() - 8)
    throw CheckpointError("checkpoint truncated in manifest section (length " +
                          std::to_string(manifest_len) + " overruns the image)");
  const std::string_view text = r.text(manifest_len);
  if (manifest != nullptr) {
    if (manifest_len == 0) throw CheckpointError("checkpoint carries no run manifest");
    // The manifest text checks its own trailer, so damage to it is named
    // here rather than as a bare image mismatch.
    *manifest = manifest_from_json(text);
  }
  // The trailer is the last word: anything else left over means a length
  // before it was damaged.
  if (r.left() != 8 || get_u64_at(bytes.data() + r.off) != r.image)
    throw CheckpointError("checkpoint checksum mismatch (header or metadata corrupted)");
  return snap;
}

namespace {

// Flushes a file's (or directory's) kernel buffers to stable storage. The
// directory fsync is what makes the rename itself durable: without it a power
// loss can roll the directory entry back to the old image even though the new
// file's data reached the disk. Directory fsync failures are best-effort
// (some filesystems refuse directory fds) but never silent: each one bumps
// `ckpt.dir_fsync_soft_fail` so a fleet quietly losing rename durability is
// visible in the metrics dump.
void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    if (!directory) throw CheckpointError("cannot reopen for fsync: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
    return;
  }
  const bool ok = sync_fd(fd, /*data_only=*/false);
  ::close(fd);
  if (!ok) {
    if (!directory) throw CheckpointError("fsync failed: " + path);
    MetricsRegistry::global().counter("ckpt.dir_fsync_soft_fail").add(1.0);
  }
}

std::string parent_dir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

CommitHook g_commit_hook;  // crash-harness commit-point hook; see checkpoint.hpp

// ---- generation log frames ------------------------------------------------------

constexpr uint64_t kFrameMagic = 0x31474f4c4b4e4346ULL;  // "FCNKLOG1" as little-endian bytes
constexpr size_t kHeaderWords = 5;                       // the words the header digest seals

uint64_t run_key(std::string_view run) { return fnv1a64(run); }

struct FrameHeader {
  uint64_t run = 0;
  int64_t seq = 0;
  int64_t step = 0;
  uint64_t length = 0;
};

void encode_header(std::byte* out, const FrameHeader& h) {
  const uint64_t words[kHeaderWords] = {kFrameMagic, h.run, static_cast<uint64_t>(h.seq),
                                        static_cast<uint64_t>(h.step), h.length};
  for (size_t i = 0; i < kHeaderWords; ++i) put_u64_at(out + 8 * i, words[i]);
  put_u64_at(out + 8 * kHeaderWords,
             digest_words(std::span<const std::byte>(out, 8 * kHeaderWords)));
}

// nullopt unless `in` holds a frame header whose digest matches.
std::optional<FrameHeader> decode_header(const std::byte* in) {
  if (get_u64_at(in) != kFrameMagic ||
      get_u64_at(in + 8 * kHeaderWords) !=
          digest_words(std::span<const std::byte>(in, 8 * kHeaderWords)))
    return std::nullopt;
  return FrameHeader{get_u64_at(in + 8), static_cast<int64_t>(get_u64_at(in + 16)),
                     static_cast<int64_t>(get_u64_at(in + 24)), get_u64_at(in + 32)};
}

// Reads up to `n` bytes at `off`; fewer only at the end of the file.
size_t pread_full(int fd, std::byte* buf, size_t n, uint64_t off) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got, static_cast<off_t>(off + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) throw CheckpointError("cannot read the generation log");
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return got;
}

void write_all(int fd, const std::byte* p, size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw CheckpointError("cannot append to " + path);
    p += w;
    n -= static_cast<size_t>(w);
  }
}

// The first offset at or after `from` (a word boundary) that holds a frame
// header whose digest matches; `size` when there is none. Reads the file a
// block at a time.
uint64_t next_header(int fd, uint64_t from, uint64_t size) {
  std::vector<std::byte> block(size_t{64} << 10);
  std::byte hdr[GenerationLog::kHeaderBytes];
  for (uint64_t at = from; at + GenerationLog::kHeaderBytes <= size;) {
    const size_t n = pread_full(fd, block.data(), std::min<uint64_t>(block.size(), size - at), at);
    if (n < 8) break;
    for (size_t i = 0; i + 8 <= n; i += 8) {
      if (get_u64_at(block.data() + i) != kFrameMagic) continue;
      const uint64_t cand = at + i;
      if (cand + sizeof hdr <= size && pread_full(fd, hdr, sizeof hdr, cand) == sizeof hdr &&
          decode_header(hdr))
        return cand;
    }
    at += n - n % 8;
  }
  return size;
}

}  // namespace

void set_checkpoint_commit_hook(CommitHook hook) { g_commit_hook = std::move(hook); }

bool sync_fd(int fd, bool data_only) {
  static Counter& fsyncs = MetricsRegistry::global().counter("ckpt.fsyncs");
  static Counter& fsync_seconds = MetricsRegistry::global().counter("ckpt.fsync_seconds");
  const auto t0 = Clock::now();
#if defined(__linux__)
  const int rc = data_only ? ::fdatasync(fd) : ::fsync(fd);
#else
  (void)data_only;
  const int rc = ::fsync(fd);
#endif
  fsync_seconds.add(seconds_since(t0));
  fsyncs.add(1.0);
  return rc == 0;
}

void sync_directory(const std::string& path) { fsync_path(path, /*directory=*/true); }

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
  fsync_path(tmp, /*directory=*/false);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot commit checkpoint to " + path);
  }
  fsync_path(parent_dir(path), /*directory=*/true);
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

// ---- GenerationLog ---------------------------------------------------------------

GenerationLog::GenerationLog(std::string dir, int keep)
    : dir_(std::move(dir)), path_(dir_ + "/" + kFileName), keep_(std::max(keep, 1)) {}

GenerationLog::~GenerationLog() {
  if (fd_ >= 0) ::close(fd_);
}

std::string GenerationLog::frame_name(std::string_view run, int64_t seq) const {
  return path_ + "#" + (run.empty() ? std::string() : std::string(run) + ":") +
         std::to_string(seq);
}

void GenerationLog::adopt(std::string_view run) {
  std::lock_guard<std::mutex> lk(mu_);
  runs_[run_key(run)].adopted = true;
}

void GenerationLog::retire(std::string_view run) {
  std::lock_guard<std::mutex> lk(mu_);
  pending_retire_.push_back(run_key(run));
}

bool GenerationLog::open_locked() {
  if (fd_ >= 0) return true;
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    if (errno == ENOENT) return false;
    throw CheckpointError("cannot open " + path_);
  }
  scan_locked();
  return true;
}

void GenerationLog::create_locked() {
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd_ < 0 && errno == EEXIST && open_locked()) return;
  if (fd_ < 0) throw CheckpointError("cannot create " + path_);
  new_entry_ = true;
  size_ = complete_ = 0;
}

// One pass over the headers: each complete frame is indexed under its run
// and skipped past by its length, a damaged header is passed over to the
// next magic word, and the scan stops at a frame whose image runs past the
// end of the file (a torn append), which is indexed so that lookups count
// it unreadable.
void GenerationLog::scan_locked() {
  static Counter& damaged = MetricsRegistry::global().counter("ckpt.log.damaged_frames");
  struct stat st {};
  if (::fstat(fd_, &st) != 0) throw CheckpointError("cannot size " + path_);
  size_ = static_cast<uint64_t>(st.st_size);
  complete_ = 0;
  std::byte hdr[kHeaderBytes];
  for (uint64_t off = 0; off + kHeaderBytes <= size_;) {
    if (pread_full(fd_, hdr, kHeaderBytes, off) != kHeaderBytes)
      throw CheckpointError("cannot read " + path_);
    const std::optional<FrameHeader> h = decode_header(hdr);
    if (!h) {
      damaged.add(1.0);
      off = next_header(fd_, off + 8, size_);
      continue;
    }
    const bool whole = h->length <= size_ - off - kHeaderBytes;
    runs_[h->run].frames.push_back(Frame{h->seq, h->step, off, h->length, /*scanned=*/true});
    if (!whole) break;
    off += kHeaderBytes + h->length;
    complete_ = off;
  }
}

// Before the first append: bytes after the last complete frame are what a
// crash mid-append left, cut away so no frame follows a torn one.
void GenerationLog::cut_torn_tail_locked() {
  tail_checked_ = true;
  if (complete_ >= size_) return;
  if (::ftruncate(fd_, static_cast<off_t>(complete_)) != 0)
    throw CheckpointError("cannot truncate " + path_);
  MetricsRegistry::global().counter("ckpt.log.torn_tails").add(1.0);
  for (auto& [key, run] : runs_)
    std::erase_if(run.frames, [&](const Frame& f) { return f.offset >= complete_; });
  size_ = complete_;
  dirty_ = true;
}

void GenerationLog::append(std::string_view run, int64_t seq, int64_t step,
                           std::span<const std::byte> image) {
  const uint64_t key = run_key(run);
  std::byte hdr[kHeaderBytes];
  encode_header(hdr, FrameHeader{key, seq, step, image.size()});
  std::lock_guard<std::mutex> lk(mu_);
  if (!open_locked()) create_locked();
  if (!tail_checked_) cut_torn_tail_locked();
  // Header and image in one writev, so concurrent appends never interleave.
  iovec iov[2] = {{hdr, kHeaderBytes}, {const_cast<std::byte*>(image.data()), image.size()}};
  const size_t total = kHeaderBytes + image.size();
  ssize_t w;
  do {
    w = ::writev(fd_, iov, 2);
  } while (w < 0 && errno == EINTR);
  if (w < 0) throw CheckpointError("cannot append to " + path_);
  if (static_cast<size_t>(w) < total) {
    // A short write (a signal, a full disk): finish from where it stopped.
    std::vector<std::byte> rest(total);
    std::memcpy(rest.data(), hdr, kHeaderBytes);
    if (!image.empty()) std::memcpy(rest.data() + kHeaderBytes, image.data(), image.size());
    write_all(fd_, rest.data() + w, total - static_cast<size_t>(w), path_);
  }
  const uint64_t off = size_;
  size_ += total;
  complete_ = size_;
  Run& r = runs_[key];
  // A run that was not adopted never sees what an earlier process left under
  // its name: those frames become garbage now.
  if (!r.adopted) std::erase_if(r.frames, [](const Frame& f) { return f.scanned; });
  r.frames.push_back(Frame{seq, step, off, image.size(), /*scanned=*/false});
  if (r.frames.size() > static_cast<size_t>(keep_))
    r.frames.erase(r.frames.begin(),
                   r.frames.end() - static_cast<std::ptrdiff_t>(keep_));
  dirty_ = true;
  if (g_commit_hook) g_commit_hook(frame_name(run, seq), CommitPhase::AfterAppend);
}

std::vector<std::byte> GenerationLog::read(std::string_view run, int64_t seq) {
  const uint64_t key = run_key(run);
  std::lock_guard<std::mutex> lk(mu_);
  const Frame* f = find_locked(key, seq);
  if (f == nullptr) throw CheckpointError("no live frame " + frame_name(run, seq));
  if (f->length > size_ - f->offset - kHeaderBytes)
    throw CheckpointError("frame " + frame_name(run, seq) +
                          " torn: its image runs past the end of the log");
  std::byte hdr[kHeaderBytes];
  std::vector<std::byte> image(f->length);
  if (pread_full(fd_, hdr, kHeaderBytes, f->offset) != kHeaderBytes ||
      pread_full(fd_, image.data(), image.size(), f->offset + kHeaderBytes) != image.size())
    throw CheckpointError("short read of frame " + frame_name(run, seq));
  const std::optional<FrameHeader> h = decode_header(hdr);
  if (!h || h->run != key || h->seq != seq || h->length != f->length)
    throw CheckpointError("frame " + frame_name(run, seq) + ": header no longer matches");
  return image;
}

void GenerationLog::sync() {
  std::lock_guard<std::mutex> lk(mu_);
  if (dirty_) {
    if (!sync_fd(fd_, /*data_only=*/true)) throw CheckpointError("cannot sync " + path_);
    dirty_ = false;
    if (new_entry_) {
      sync_directory(dir_);
      new_entry_ = false;
    }
    if (g_commit_hook) g_commit_hook(path_, CommitPhase::AfterSync);
  }
  for (const uint64_t key : pending_retire_) runs_.erase(key);
  pending_retire_.clear();
  if (fd_ < 0) return;
  const uint64_t live = live_bytes_locked();
  if (compaction_due(size_ > live ? size_ - live : 0, live)) compact_locked();
}

void GenerationLog::compact() {
  std::lock_guard<std::mutex> lk(mu_);
  if (open_locked()) compact_locked();
}

// The live frames, in file order, are copied one at a time into a new file,
// which is synced and renamed over the log before the directory is synced:
// a crash at any point leaves the old log or the new one whole.
void GenerationLog::compact_locked() {
  if (!tail_checked_) cut_torn_tail_locked();
  // What an earlier process left counts only for the runs this one adopted.
  for (auto& [key, run] : runs_)
    if (!run.adopted) std::erase_if(run.frames, [](const Frame& f) { return f.scanned; });
  std::vector<Frame*> live;
  for (auto& [key, run] : runs_)
    for (Frame& f : run.frames) live.push_back(&f);
  std::sort(live.begin(), live.end(),
            [](const Frame* a, const Frame* b) { return a->offset < b->offset; });
  const std::string tmp = path_ + ".compact";
  const int out = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out < 0) throw CheckpointError("cannot create " + tmp);
  std::vector<uint64_t> moved;
  moved.reserve(live.size());
  uint64_t at = 0;
  try {
    std::vector<std::byte> frame;
    for (const Frame* f : live) {
      frame.resize(kHeaderBytes + f->length);
      if (pread_full(fd_, frame.data(), frame.size(), f->offset) != frame.size())
        throw CheckpointError("short read of a live frame in " + path_);
      write_all(out, frame.data(), frame.size(), tmp);
      moved.push_back(at);
      at += frame.size();
    }
    if (!sync_fd(out, /*data_only=*/true)) throw CheckpointError("cannot sync " + tmp);
  } catch (...) {
    ::close(out);
    std::remove(tmp.c_str());
    throw;
  }
  ::close(out);
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("cannot rename the compacted log over " + path_);
  }
  sync_directory(dir_);
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) throw CheckpointError("cannot reopen " + path_);
  for (size_t i = 0; i < live.size(); ++i) live[i]->offset = moved[i];
  size_ = complete_ = at;
  dirty_ = false;
  new_entry_ = false;
  MetricsRegistry::global().counter("ckpt.log.compactions").add(1.0);
  if (g_commit_hook) g_commit_hook(path_, CommitPhase::AfterSync);
}


const GenerationLog::Frame* GenerationLog::find_locked(uint64_t key, int64_t seq) {
  const auto it = runs_.find(key);
  if (it == runs_.end()) return nullptr;
  if (it->second.adopted) open_locked();
  const Run& r = it->second;
  for (auto f = r.frames.rbegin(); f != r.frames.rend(); ++f)
    if (f->seq == seq && (r.adopted || !f->scanned)) return &*f;
  return nullptr;
}

std::vector<GenerationLog::Frame> GenerationLog::frames(std::string_view run) {
  const uint64_t key = run_key(run);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = runs_.find(key);
  if (it == runs_.end()) return {};
  if (it->second.adopted) open_locked();
  const Run& r = it->second;
  std::vector<Frame> out;
  for (auto f = r.frames.rbegin(); f != r.frames.rend(); ++f)
    if (r.adopted || !f->scanned) out.push_back(*f);
  return out;
}

int64_t GenerationLog::last_seq(std::string_view run) {
  int64_t last = 0;
  for (const Frame& f : frames(run)) last = std::max(last, f.seq);
  return last;
}

uint64_t GenerationLog::live_bytes_locked() const {
  uint64_t live = 0;
  for (const auto& [key, run] : runs_)
    for (const Frame& f : run.frames)
      if (run.adopted || !f.scanned) live += kHeaderBytes + f.length;
  return live;
}

uint64_t GenerationLog::file_bytes() {
  std::lock_guard<std::mutex> lk(mu_);
  open_locked();
  return size_;
}

uint64_t GenerationLog::live_bytes() {
  std::lock_guard<std::mutex> lk(mu_);
  open_locked();
  return live_bytes_locked();
}

// ---- discovery ---------------------------------------------------------------------

std::optional<Generation> find_latest_generation(GenerationLog& log, std::string_view run) {
  const std::vector<GenerationLog::Frame> frames = log.frames(run);
  if (frames.empty()) return std::nullopt;
  std::optional<Generation> found;
  int skipped = 0;
  std::string first_error;
  for (const GenerationLog::Frame& f : frames) {
    try {
      std::vector<std::byte> image = log.read(run, f.seq);
      RunManifest manifest;
      Snapshot state = deserialize(image, &manifest);
      if (!found) {
        found = Generation{log.frame_name(run, f.seq), f.seq, std::move(image), std::move(state),
                           std::move(manifest), {}, skipped};
      } else if (manifest.solver == found->manifest.solver &&
                 manifest.config_hash == found->manifest.config_hash &&
                 state.step <= found->state.step) {
        found->fallbacks.push_back(f.seq);
      }
    } catch (const CheckpointError& err) {
      if (found) continue;  // a damaged older frame is simply not a fallback
      if (skipped++ == 0) first_error = err.what();
    }
  }
  if (!found)
    throw CheckpointError("no readable checkpoint generation in " + log.path() +
                          (run.empty() ? std::string() : " for run '" + std::string(run) + "'") +
                          ": all " + std::to_string(skipped) + " unreadable, newest (" +
                          log.frame_name(run, frames.front().seq) + "): " + first_error);
  return found;
}

std::optional<Generation> find_latest_generation(const std::string& dir, std::string_view run) {
  GenerationLog log(dir, 1);
  log.adopt(run);
  return find_latest_generation(log, run);
}

// ---- CheckpointStore -------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir, int disk_generations)
    : disk_generations_(disk_generations) {
  if (dir.empty()) return;
  if (disk_generations_ < 1)
    throw std::invalid_argument("CheckpointStore: a durable store keeps at least one generation");
  own_log_ = std::make_unique<GenerationLog>(std::move(dir), disk_generations_);
  log_ = own_log_.get();
  log_->adopt(run_);
  saves_ = log_->last_seq(run_);
}

CheckpointStore::CheckpointStore(GenerationLog* log, std::string run, int disk_generations)
    : log_(log), run_(std::move(run)), disk_generations_(disk_generations) {
  if (disk_generations_ < 1)
    throw std::invalid_argument("CheckpointStore: a durable store keeps at least one generation");
  saves_ = log_->last_seq(run_);
}

void CheckpointStore::save(const Snapshot& snap, const RunManifest* manifest) {
  saves_ += 1;
  prev_image_ = std::move(image_);  // empty when generation 0 was spilled: its frame backs it
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
  if (log_ == nullptr) return;
  // An appended frame is never rewritten, so a crash inside this append
  // cannot damage any earlier generation — the property the SIGKILL harness
  // drives through the commit hook.
  log_->append(run_, saves_, snap.step, image_);
  if (own_log_) own_log_->sync();
  disk_seqs_.insert(disk_seqs_.begin(), saves_);
  if (static_cast<int>(disk_seqs_.size()) > disk_generations_)
    disk_seqs_.resize(static_cast<size_t>(disk_generations_));
}

void CheckpointStore::hold(const Snapshot& snap) {
  if (!disk_seqs_.empty())
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
  disk_seqs_.assign(1, gen.seq);
  disk_seqs_.insert(disk_seqs_.end(), gen.fallbacks.begin(), gen.fallbacks.end());
  if (static_cast<int>(disk_seqs_.size()) > disk_generations_)
    disk_seqs_.resize(static_cast<size_t>(disk_generations_));
}

Snapshot CheckpointStore::load_latest() const {
  if (generations() == 0) throw CheckpointError("no checkpoint saved");
  return load(0);
}

Snapshot CheckpointStore::load(int generation) const { return deserialize(image_copy(generation)); }

int CheckpointStore::generations() const {
  // Memory holds generations 0 and 1; either may have been spilled to its
  // frame, so the count is the highest slot still held, not the number held.
  const int mem = !prev_image_.empty() ? 2 : (image_.empty() ? 0 : 1);
  return std::max(mem, static_cast<int>(disk_seqs_.size()));
}

std::vector<std::byte> CheckpointStore::image_copy(int generation) const {
  if (generation < 0 || generation >= generations())
    throw CheckpointError("no checkpoint generation " + std::to_string(generation) + " (have " +
                          std::to_string(generations()) + ")");
  if (generation == 0 && !image_.empty()) return image_;
  if (generation == 1 && !prev_image_.empty()) return prev_image_;
  // Spilled / dropped from memory: its frame in the log still backs it.
  return log_->read(run_, disk_seqs_[static_cast<size_t>(generation)]);
}

std::vector<std::string> CheckpointStore::disk_paths() const {
  std::vector<std::string> names;
  for (const int64_t seq : disk_seqs_) names.push_back(log_->frame_name(run_, seq));
  return names;
}

int64_t CheckpointStore::drop_previous_generation() {
  // Only safe when an older frame can still serve generation-1 fallback.
  if (prev_image_.empty() || disk_seqs_.size() < 2) return 0;
  const int64_t freed = static_cast<int64_t>(prev_image_.capacity());
  prev_image_.clear();
  prev_image_.shrink_to_fit();
  return freed;
}

int64_t CheckpointStore::spill() {
  // The severe relief: keep in memory only what no frame backs — a held
  // generation stays. Generation g is backed when disk_seqs_[g] exists.
  const auto release = [](std::vector<std::byte>& image) {
    const int64_t freed = static_cast<int64_t>(image.capacity());
    image.clear();
    image.shrink_to_fit();
    return freed;
  };
  int64_t freed = 0;
  if (disk_seqs_.size() >= 2 && !prev_image_.empty()) freed += release(prev_image_);
  if (!disk_seqs_.empty() && !image_.empty()) freed += release(image_);
  return freed;
}

void CheckpointStore::write_file(const std::string& path, const Snapshot& snap) {
  write_bytes_atomic(path, serialize(snap));
}

Snapshot CheckpointStore::read_file(const std::string& path) {
  return deserialize(read_bytes_file(path));
}

}  // namespace finch::rt

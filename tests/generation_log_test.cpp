// The generation log: one append-only file of checkpoint frames per durable
// directory (rt::GenerationLog). Frames of several runs interleave and read
// back bitwise by (run, sequence); a torn final frame is skipped, counted and
// cut before the next append; a damaged header is passed over to the next
// frame; appends from two threads land whole; sync is one fdatasync per
// group; and compaction keeps exactly the live frames under the same names.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/manifest.hpp"
#include "runtime/metrics.hpp"

using namespace finch;
using Frame = rt::GenerationLog::Frame;

namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = "generation_log_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string log_path(const std::string& dir) { return dir + "/" + rt::GenerationLog::kFileName; }

// A resumable image: a snapshot whose values and manifest both depend on
// (tag, step), so two frames never share bytes.
std::vector<std::byte> image(int tag, int64_t step) {
  rt::Snapshot snap;
  snap.step = step;
  std::vector<double> I(64);
  for (size_t i = 0; i < I.size(); ++i) I[i] = tag * 1000.0 + static_cast<double>(step) + 0.5 * i;
  snap.add("I", I);
  snap.add("T", std::vector<double>{300.0 + tag, 301.0 + static_cast<double>(step)});
  rt::RunManifest m;
  m.solver = "cell";
  m.config_hash = 0xc0ffee00ULL + static_cast<uint64_t>(tag);
  m.last_step = step;
  m.saves = step;
  return rt::serialize(snap, &m);
}

std::vector<int64_t> seqs(const std::vector<Frame>& frames) {
  std::vector<int64_t> out;
  for (const Frame& f : frames) out.push_back(f.seq);
  return out;
}

// A reader as a restarted process makes one: it adopts the runs it asks for.
std::vector<int64_t> reader_seqs(const std::string& dir, const std::string& run, int keep = 2) {
  rt::GenerationLog reader(dir, keep);
  reader.adopt(run);
  return seqs(reader.frames(run));
}

}  // namespace

TEST(GenerationLog, TwoRunsInterleavedRoundTripBitwise) {
  const std::string dir = fresh_dir("interleaved");
  std::vector<std::vector<std::byte>> a, b;
  {
    rt::GenerationLog log(dir, 4);
    EXPECT_FALSE(std::filesystem::exists(log_path(dir)));  // opened on first append
    for (int64_t seq = 1; seq <= 3; ++seq) {
      a.push_back(image(1, seq));
      b.push_back(image(2, seq));
      log.append("job-a", seq, seq, a.back());
      log.append("job-b", seq, seq, b.back());
    }
    log.sync();
    // The writer reads its own frames back at once, by name.
    EXPECT_EQ(seqs(log.frames("job-a")), (std::vector<int64_t>{3, 2, 1}));
    EXPECT_EQ(log.read("job-b", 2), b[1]);
    EXPECT_EQ(log.frame_name("job-b", 2), log_path(dir) + "#job-b:2");
    EXPECT_EQ(log.frame_name("", 2), log_path(dir) + "#2");
    EXPECT_TRUE(log.frames("job-c").empty());
    EXPECT_THROW(log.read("job-c", 1), rt::CheckpointError);
  }
  rt::GenerationLog reader(dir, 4);
  reader.adopt("job-a");
  reader.adopt("job-b");
  for (int64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_EQ(reader.read("job-a", seq), a[static_cast<size_t>(seq - 1)]) << seq;
    EXPECT_EQ(reader.read("job-b", seq), b[static_cast<size_t>(seq - 1)]) << seq;
  }
  const std::optional<rt::Generation> gen = rt::find_latest_generation(reader, "job-b");
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(gen->seq, 3);
  EXPECT_EQ(gen->image, b[2]);
  EXPECT_EQ(gen->fallbacks, (std::vector<int64_t>{2, 1}));
  EXPECT_EQ(gen->manifest.config_hash, 0xc0ffee02ULL);
}

// A run that was not adopted sees only what this object appended: a job
// submitted fresh never resumes from frames an earlier process left under
// its name, and those frames — like every earlier frame of a run this
// object did not adopt — are garbage for its compaction.
TEST(GenerationLog, OnlyAdoptedRunsSeeAnEarlierProcesssFrames) {
  const std::string dir = fresh_dir("adoption");
  {
    rt::GenerationLog log(dir, 2);
    log.append("job", 1, 2, image(1, 2));
    log.append("ended", 1, 2, image(3, 2));
    log.append("orphan", 1, 2, image(4, 2));
    log.sync();
  }
  rt::GenerationLog fresh(dir, 2);
  EXPECT_TRUE(fresh.frames("job").empty());
  EXPECT_FALSE(rt::find_latest_generation(fresh, "job").has_value());
  EXPECT_EQ(fresh.last_seq("job"), 0);
  fresh.append("job", 1, 4, image(2, 4));
  EXPECT_EQ(fresh.read("job", 1), image(2, 4));
  EXPECT_EQ(fresh.frames("job").size(), 1u);

  rt::GenerationLog adopted(dir, 2);
  adopted.adopt("job");
  EXPECT_EQ(seqs(adopted.frames("job")), (std::vector<int64_t>{1, 1}));
  EXPECT_EQ(adopted.read("job", 1), image(2, 4));  // a name means its newest frame

  // A restart that adopts only "orphan": its compaction keeps that run's
  // earlier frame and drops the other runs' (the fresh "job" appended here).
  fresh.adopt("orphan");
  fresh.compact();
  EXPECT_EQ(fresh.file_bytes(), fresh.live_bytes());
  EXPECT_EQ(reader_seqs(dir, "job"), (std::vector<int64_t>{1}));
  EXPECT_TRUE(reader_seqs(dir, "ended").empty());
  rt::GenerationLog reader(dir, 2);
  reader.adopt("orphan");
  EXPECT_EQ(reader.read("orphan", 1), image(4, 2));
  reader.adopt("job");
  EXPECT_EQ(reader.read("job", 1), image(2, 4));
}

TEST(GenerationLog, TornFinalFrameIsSkippedCountedAndTruncatedBeforeTheNextAppend) {
  const std::string dir = fresh_dir("torn");
  uint64_t complete = 0;
  {
    rt::GenerationLog log(dir, 2);
    log.append("", 1, 2, image(1, 2));
    complete = std::filesystem::file_size(log_path(dir));
    log.append("", 2, 4, image(1, 4));
    log.sync();
  }
  // Power lost in the middle of frame 2's image.
  std::filesystem::resize_file(log_path(dir), complete + rt::GenerationLog::kHeaderBytes + 100);
  const std::optional<rt::Generation> gen = rt::find_latest_generation(dir);
  ASSERT_TRUE(gen.has_value());
  EXPECT_EQ(gen->seq, 1);
  EXPECT_EQ(gen->skipped, 1);
  EXPECT_EQ(gen->state.step, 2);

  auto& mx = rt::MetricsRegistry::global();
  const double torn0 = mx.value("ckpt.log.torn_tails");
  rt::CheckpointStore store(dir, 2);
  EXPECT_EQ(store.saves(), 2);  // numbered past the torn frame's name
  EXPECT_EQ(std::filesystem::file_size(log_path(dir)),
            complete + rt::GenerationLog::kHeaderBytes + 100);  // reading cut nothing
  store.resume(*gen);
  rt::Snapshot next;
  next.step = 6;
  next.add("I", std::vector<double>{1.0});
  store.save(next);
  EXPECT_EQ(mx.value("ckpt.log.torn_tails") - torn0, 1.0);
  EXPECT_EQ(reader_seqs(dir, ""), (std::vector<int64_t>{3, 1}));
  rt::GenerationLog reader(dir, 2);
  reader.adopt("");
  EXPECT_EQ(reader.frames("").back().offset, 0u);
  EXPECT_EQ(reader.frames("").front().offset, complete);  // the new frame follows the cut
  EXPECT_EQ(reader.read("", 1), image(1, 2));
  EXPECT_EQ(reader.file_bytes(), reader.live_bytes());
}

// A frame whose header is damaged cannot be named; the scan passes over it
// to the next magic word, so both runs' later frames are still found. A
// frame whose image is damaged keeps its name and reads as unreadable.
TEST(GenerationLog, DamagedMiddleFrameIsSkippedAndLaterFramesStillFound) {
  const std::string dir = fresh_dir("damaged");
  std::vector<uint64_t> starts;
  {
    rt::GenerationLog log(dir, 4);
    const char* runs[] = {"a", "b", "a", "b", "a", "b"};
    for (int i = 0; i < 6; ++i) {
      starts.push_back(std::filesystem::exists(log_path(dir))
                           ? std::filesystem::file_size(log_path(dir))
                           : 0);
      log.append(runs[i], i / 2 + 1, 2 * (i / 2 + 1), image(runs[i][0], 2 * (i / 2 + 1)));
    }
    log.sync();
  }
  const auto flip = [&](uint64_t at) {
    std::fstream io(log_path(dir), std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(static_cast<std::streamoff>(at));
    char c = 0;
    io.get(c);
    io.seekp(static_cast<std::streamoff>(at));
    io.put(static_cast<char>(c ^ 0x04));
  };
  flip(starts[1] + 33);  // frame b:1's image-length word
  flip(starts[2] + rt::GenerationLog::kHeaderBytes + 200);  // frame a:2's image

  auto& mx = rt::MetricsRegistry::global();
  const double damaged0 = mx.value("ckpt.log.damaged_frames");
  EXPECT_EQ(reader_seqs(dir, "a", 4), (std::vector<int64_t>{3, 2, 1}));
  EXPECT_EQ(mx.value("ckpt.log.damaged_frames") - damaged0, 1.0);
  EXPECT_EQ(reader_seqs(dir, "b", 4), (std::vector<int64_t>{3, 2}));

  const std::optional<rt::Generation> a = rt::find_latest_generation(dir, "a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->seq, 3);
  EXPECT_EQ(a->fallbacks, (std::vector<int64_t>{1}));  // the damaged a:2 is no fallback
  const std::optional<rt::Generation> b = rt::find_latest_generation(dir, "b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->seq, 3);
  EXPECT_EQ(b->image, image('b', 6));

  // Every frame of a run unreadable is a named error, not a fresh start.
  flip(starts[4] + rt::GenerationLog::kHeaderBytes + 200);
  flip(starts[0] + rt::GenerationLog::kHeaderBytes + 200);
  try {
    rt::find_latest_generation(dir, "a");
    FAIL() << "a run of unreadable frames was taken for a fresh start";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("no readable checkpoint generation"),
              std::string::npos)
        << err.what();
    EXPECT_NE(std::string(err.what()).find("for run 'a'"), std::string::npos) << err.what();
  }
}

// Two attempt threads append to one log at once: every frame lands whole,
// at its own offset, and reads back bitwise.
TEST(GenerationLog, TwoThreadsAppendConcurrently) {
  const std::string dir = fresh_dir("concurrent");
  constexpr int kFrames = 40;
  rt::GenerationLog log(dir, kFrames);
  const auto writer = [&log](int tag) {
    const std::string run = "t" + std::to_string(tag);
    for (int64_t seq = 1; seq <= kFrames; ++seq) {
      log.append(run, seq, seq, image(tag, seq));
      EXPECT_EQ(log.read(run, seq), image(tag, seq));
    }
  };
  std::thread t0(writer, 0), t1(writer, 1);
  t0.join();
  t1.join();
  log.sync();
  EXPECT_EQ(log.file_bytes(), log.live_bytes());
  for (const int tag : {0, 1}) {
    const std::string run = "t" + std::to_string(tag);
    rt::GenerationLog reader(dir, kFrames);
    reader.adopt(run);
    ASSERT_EQ(reader.frames(run).size(), static_cast<size_t>(kFrames)) << run;
    for (int64_t seq = 1; seq <= kFrames; ++seq)
      EXPECT_EQ(reader.read(run, seq), image(tag, seq)) << run << ":" << seq;
  }
}

// Group commit: one counted fdatasync covers every frame appended since the
// last sync; the log's creation adds one fsync of its directory; a sync with
// nothing new is free.
TEST(GenerationLog, SyncIsOneFdatasyncPerGroup) {
  const std::string dir = fresh_dir("sync");
  auto& mx = rt::MetricsRegistry::global();
  rt::GenerationLog log(dir, 2);
  double before = mx.value("ckpt.fsyncs");
  log.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 0.0);
  for (int64_t seq = 1; seq <= 3; ++seq) log.append("r", seq, seq, image(1, seq));
  before = mx.value("ckpt.fsyncs");
  log.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 2.0);  // data + the directory's entry
  log.append("r", 4, 4, image(1, 4));
  before = mx.value("ckpt.fsyncs");
  log.sync();
  log.sync();
  EXPECT_EQ(mx.value("ckpt.fsyncs") - before, 1.0);
}

TEST(GenerationLog, CompactionIsDueOnlyPastBothBounds) {
  constexpr uint64_t MiB = uint64_t{1} << 20;
  EXPECT_TRUE(rt::GenerationLog::compaction_due(65 * MiB, 1 * MiB));
  EXPECT_TRUE(rt::GenerationLog::compaction_due(65 * MiB, 0));
  EXPECT_FALSE(rt::GenerationLog::compaction_due(65 * MiB, 17 * MiB));  // < 4x the live bytes
  EXPECT_FALSE(rt::GenerationLog::compaction_due(63 * MiB, 0));         // < 64 MiB
  EXPECT_FALSE(rt::GenerationLog::compaction_due(0, 0));
}

// Compaction rewrites exactly the live frames — each run's newest `keep`,
// none of a retired run — bitwise, and every (run, sequence) name a store
// holds still reads afterwards.
TEST(GenerationLog, CompactionKeepsLiveFramesAndTheirNames) {
  const std::string dir = fresh_dir("compaction");
  rt::GenerationLog log(dir, 2);
  for (int64_t seq = 1; seq <= 4; ++seq) log.append("a", seq, seq, image(1, seq));
  for (int64_t seq = 1; seq <= 3; ++seq) log.append("done", seq, seq, image(2, seq));
  rt::CheckpointStore store(&log, "s", 2);
  for (int64_t step = 2; step <= 6; step += 2) {
    rt::Snapshot snap;
    snap.step = step;
    snap.add("I", std::vector<double>{static_cast<double>(step), 1.5});
    store.save(snap);
  }
  EXPECT_EQ(store.disk_paths(),
            (std::vector<std::string>{log.frame_name("s", 3), log.frame_name("s", 2)}));
  EXPECT_GT(store.spill(), 0);  // both generations now live only in the log
  log.retire("done");
  auto& mx = rt::MetricsRegistry::global();
  const double compactions0 = mx.value("ckpt.log.compactions");
  log.sync();  // far below the bounds: no compaction
  EXPECT_EQ(mx.value("ckpt.log.compactions") - compactions0, 0.0);
  const uint64_t before = log.file_bytes();
  log.compact();
  EXPECT_EQ(mx.value("ckpt.log.compactions") - compactions0, 1.0);
  EXPECT_LT(log.file_bytes(), before);
  EXPECT_EQ(log.file_bytes(), log.live_bytes());
  EXPECT_FALSE(std::filesystem::exists(log_path(dir) + ".compact"));

  // The store's names survive the move.
  EXPECT_EQ(store.load(0).step, 6);
  EXPECT_EQ(store.load(1).step, 4);
  EXPECT_EQ(log.read("a", 4), image(1, 4));
  // A restarted reader finds exactly the live frames, bitwise.
  EXPECT_EQ(reader_seqs(dir, "a"), (std::vector<int64_t>{4, 3}));
  EXPECT_EQ(reader_seqs(dir, "s"), (std::vector<int64_t>{3, 2}));
  EXPECT_TRUE(reader_seqs(dir, "done").empty());
  rt::GenerationLog reader(dir, 2);
  reader.adopt("a");
  EXPECT_EQ(reader.read("a", 3), image(1, 3));
  EXPECT_EQ(reader.read("a", 4), image(1, 4));
  // Appends go on after the compacted frames.
  store.save(rt::Snapshot{8, {{"I", {8.0, 1.5}}}});
  EXPECT_EQ(reader_seqs(dir, "s"), (std::vector<int64_t>{4, 3, 2}));
  EXPECT_EQ(store.load(1).step, 6);
}

// Durable runs: the run manifest, on-disk checkpoint generations and their
// discovery, resource-exhaustion faults with graceful degradation,
// cooperative cancellation, and process-crash restart.
//
// The tentpole property under test: for any interruption — SIGKILL at a step
// boundary, SIGKILL between a checkpoint's append and its sync, an OOM-style
// drain, an operator cancel — restarting via find_latest_generation() and
// resume_from() continues the run bit-exactly versus an uninterrupted
// reference, on all three distributed solvers. The crash itself is exercised here with a real fork +
// SIGKILL child (bench_durability sweeps many kill points; this suite proves
// the mechanism).
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bte/chaos_campaign.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "runtime/cancel.hpp"
#include "runtime/chaos.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/manifest.hpp"
#include "runtime/memory.hpp"
#include "runtime/simgpu.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define FINCH_HAVE_FORK 1
#endif

using namespace finch;
using namespace finch::bte;

namespace {

BteScenario tiny_scenario() {
  BteScenario s;
  s.nx = 12;
  s.ny = 10;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

std::shared_ptr<const BtePhysics> tiny_physics() {
  const BteScenario s = tiny_scenario();
  return std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) return false;
  return true;
}

// Fresh cwd-relative directory for one test's durable store (ctest runs in
// the build tree; a stale log from a previous run is removed so numbering
// and retention assertions see only this run's generations).
std::string fresh_dir(const std::string& name) {
  const std::string dir = "durability_" + name;
#if defined(__unix__) || defined(__APPLE__)
  ::mkdir(dir.c_str(), 0755);
#endif
  std::remove((dir + "/" + rt::GenerationLog::kFileName).c_str());
  return dir;
}

std::string log_path(const std::string& dir) { return dir + "/" + rt::GenerationLog::kFileName; }
std::string frame_name(const std::string& dir, int64_t seq) {
  return log_path(dir) + "#" + std::to_string(seq);
}

// Where frame `seq` of `dir`'s own run sits in its log.
rt::GenerationLog::Frame frame_at(const std::string& dir, int64_t seq) {
  rt::GenerationLog log(dir, 1);
  log.adopt("");
  for (const rt::GenerationLog::Frame& f : log.frames(""))
    if (f.seq == seq) return f;
  ADD_FAILURE() << "no frame " << seq << " in " << dir;
  return {};
}

// The image of frame `seq`, read through a fresh log as a restarted process
// would.
rt::Snapshot read_frame(const std::string& dir, int64_t seq) {
  rt::GenerationLog log(dir, 1);
  log.adopt("");
  return rt::deserialize(log.read("", seq));
}

// The newest readable generation of `dir`; fails the test when there is none.
rt::Generation latest_generation(const std::string& dir) {
  std::optional<rt::Generation> gen = rt::find_latest_generation(dir);
  if (!gen) {
    ADD_FAILURE() << "no checkpoint generation in " << dir;
    return {};
  }
  return std::move(*gen);
}

ResilienceOptions durable_options(const std::string& dir, int interval = 2) {
  ResilienceOptions opt;
  opt.checkpoint.interval = interval;
  opt.durable.dir = dir;
  return opt;
}

rt::Snapshot tiny_snapshot(int64_t step) {
  rt::Snapshot snap;
  snap.step = step;
  snap.add("I", std::vector<double>{1.0, 2.0, 3.0 + static_cast<double>(step)});
  snap.add("T", std::vector<double>{300.0, 301.0});
  return snap;
}

}  // namespace

// ---- fault taxonomy (satellite: exhaustiveness regression) ------------------

// Every FaultKind must land in exactly one class: transient (none of the four
// predicates), permanent, silent, performance, or resource. The classifier in
// fault.cpp is a default-less switch, so *adding* a kind without classifying
// it fails to compile; this test closes the other gap — a kind classified
// into two classes, or a name collision.
TEST(Durability, FaultTaxonomyIsExhaustive) {
  std::vector<std::string> names;
  int resource = 0;
  for (int k = 0; k < rt::kNumFaultKinds; ++k) {
    const auto kind = static_cast<rt::FaultKind>(k);
    const int classes = (rt::fault_is_permanent(kind) ? 1 : 0) +
                        (rt::fault_is_silent(kind) ? 1 : 0) +
                        (rt::fault_is_performance(kind) ? 1 : 0) +
                        (rt::fault_is_resource(kind) ? 1 : 0);
    EXPECT_LE(classes, 1) << "kind " << k << " classified into " << classes << " classes";
    resource += rt::fault_is_resource(kind) ? 1 : 0;
    const std::string name = rt::fault_kind_name(kind);
    EXPECT_NE(name, "unknown-fault") << "kind " << k << " has no name";
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(name);
    EXPECT_EQ(rt::fault_kind_from_name(name), kind) << name;
  }
  EXPECT_EQ(resource, 2);  // AllocFailure + MemoryPressure
  EXPECT_TRUE(rt::fault_is_resource(rt::FaultKind::AllocFailure));
  EXPECT_TRUE(rt::fault_is_resource(rt::FaultKind::MemoryPressure));
}

// The chaos generator's menus expose the resource class on all three solvers,
// and a resource-only schedule counts as one distinct class.
TEST(Durability, ResourceClassIsInEveryChaosMenu) {
  for (const char* solver : {"cell", "band", "mgpu"}) {
    bool has_resource = false;
    for (const rt::ChaosMenuEntry& e : rt::ChaosEngine::site_menu(solver))
      has_resource = has_resource || rt::fault_is_resource(e.kind);
    EXPECT_TRUE(has_resource) << solver;
  }
  rt::ChaosSchedule sched;
  sched.faults = {{rt::FaultKind::AllocFailure, "cell-mem", 0, 1, 1},
                  {rt::FaultKind::MemoryPressure, "cell-mem", 1, 1, 1}};
  EXPECT_EQ(sched.num_classes(), 1);
}

// ---- manifest serialization -------------------------------------------------

TEST(Manifest, RoundTripsAllFields) {
  rt::RunManifest m;
  m.config_hash = 0x1234abcd5678ef01ULL;
  m.injector_seed = 77;
  m.solver = "cell";
  m.nparts = 3;
  m.last_step = 42;
  m.saves = 7;
  m.checkpoints = {"d/generations.log#7", "d/generations.log#6"};
  m.injector_counters = {{2, "halo", 120, 3}, {12, "cell-mem", 40, 1}};
  m.injector_events = {{rt::FaultKind::DroppedMessage, "halo", 17},
                       {rt::FaultKind::AllocFailure, "cell-mem", 9}};
  m.cancel_reason = "deadline: steps";

  const rt::RunManifest back = rt::manifest_from_json(rt::manifest_to_json(m));
  EXPECT_EQ(back.config_hash, m.config_hash);
  EXPECT_EQ(back.injector_seed, m.injector_seed);
  EXPECT_EQ(back.solver, m.solver);
  EXPECT_EQ(back.nparts, m.nparts);
  EXPECT_EQ(back.last_step, m.last_step);
  EXPECT_EQ(back.saves, m.saves);
  EXPECT_EQ(back.checkpoints, m.checkpoints);
  ASSERT_EQ(back.injector_counters.size(), 2u);
  EXPECT_EQ(back.injector_counters[0].kind, 2);
  EXPECT_EQ(back.injector_counters[0].site, "halo");
  EXPECT_EQ(back.injector_counters[0].consulted, 120);
  EXPECT_EQ(back.injector_counters[0].fired, 3);
  ASSERT_EQ(back.injector_events.size(), 2u);
  EXPECT_EQ(back.injector_events[1].kind, rt::FaultKind::AllocFailure);
  EXPECT_EQ(back.injector_events[1].site, "cell-mem");
  EXPECT_EQ(back.injector_events[1].event_index, 9);
  EXPECT_EQ(back.cancel_reason, m.cancel_reason);
}

// Negative paths (satellite): truncation, corruption and unreadable bodies
// each surface as a *named* CheckpointError, never a half-parsed manifest.
TEST(Manifest, TruncatedTextIsANamedError) {
  rt::RunManifest m;
  m.solver = "band";
  const std::string text = rt::manifest_to_json(m);
  const std::string truncated = text.substr(0, text.rfind("#fnv1a:"));
  try {
    rt::manifest_from_json(truncated);
    FAIL() << "truncated manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("truncated"), std::string::npos) << err.what();
  }
}

TEST(Manifest, FlippedByteIsAChecksumMismatch) {
  rt::RunManifest m;
  m.solver = "cell";
  m.last_step = 10;
  std::string text = rt::manifest_to_json(m);
  const size_t pos = text.find("\"cell\"");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = 'k';
  try {
    rt::manifest_from_json(text);
    FAIL() << "corrupted manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("checksum mismatch"), std::string::npos) << err.what();
  }
}

TEST(Manifest, GarbageBodyWithValidChecksumIsUnreadable) {
  // A correct trailer over a non-manifest body: the strict parser, not the
  // checksum, must reject it.
  rt::RunManifest m;
  const std::string good = rt::manifest_to_json(m);
  const std::string trailer = good.substr(good.rfind("#fnv1a:"));
  (void)trailer;
  const std::string body = "{\"not\": \"a manifest\"}\n";
  std::vector<std::byte> bytes(body.size());
  for (size_t i = 0; i < body.size(); ++i) bytes[i] = static_cast<std::byte>(body[i]);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(rt::fnv1a64(bytes)));
  const std::string text = body + "#fnv1a:" + hex + "\n";
  try {
    rt::manifest_from_json(text);
    FAIL() << "garbage manifest parsed";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("unreadable"), std::string::npos) << err.what();
  }
}

TEST(Manifest, MissingFileIsANamedError) {
  EXPECT_THROW(rt::read_manifest("durability_nonexistent/manifest.json"), rt::CheckpointError);
}

// ---- durable checkpoint store -----------------------------------------------

TEST(DurableStore, RetainsNewestGenerationsAndPrunesBeyondRetention) {
  const std::string dir = fresh_dir("store_retention");
  rt::CheckpointStore store(dir, 2);
  store.save(tiny_snapshot(1));
  store.save(tiny_snapshot(2));
  store.save(tiny_snapshot(3));
  ASSERT_EQ(store.disk_paths().size(), 2u);
  EXPECT_EQ(store.disk_paths()[0], frame_name(dir, 3));
  EXPECT_EQ(store.disk_paths()[1], frame_name(dir, 2));
  EXPECT_EQ(read_frame(dir, 3).step, 3);
  EXPECT_EQ(read_frame(dir, 2).step, 2);
  // The pruned oldest generation is no longer live: the store's log refuses
  // it, and compaction drops it from the file.
  EXPECT_THROW(store.log()->read("", 1), rt::CheckpointError);
  store.log()->compact();
  rt::GenerationLog reader(dir, 2);
  reader.adopt("");
  std::vector<int64_t> seqs;
  for (const rt::GenerationLog::Frame& f : reader.frames("")) seqs.push_back(f.seq);
  EXPECT_EQ(seqs, (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(reader.file_bytes(), reader.live_bytes());
}

TEST(DurableStore, ReliefsFreeMemoryOnlyWhenDiskBacksIt) {
  // In-memory-only store: dropping the previous generation would destroy the
  // only fallback, so the relief must refuse (return 0).
  rt::CheckpointStore memory_only;
  memory_only.save(tiny_snapshot(1));
  memory_only.save(tiny_snapshot(2));
  EXPECT_EQ(memory_only.drop_previous_generation(), 0);
  EXPECT_EQ(memory_only.spill(), 0);
  EXPECT_EQ(memory_only.generations(), 2);

  const std::string dir = fresh_dir("store_relief");
  rt::CheckpointStore durable(dir, 2);
  durable.save(tiny_snapshot(1));
  durable.save(tiny_snapshot(2));
  EXPECT_GT(durable.drop_previous_generation(), 0);
  EXPECT_GT(durable.spill(), 0);
  // Both generations survive the reliefs — re-read from their frames.
  EXPECT_EQ(durable.generations(), 2);
  EXPECT_EQ(durable.load(0).step, 2);
  EXPECT_EQ(durable.load(1).step, 1);
}

// ---- memory budget ----------------------------------------------------------

TEST(MemoryBudget, RunsReliefChainBeforeFailingAnAllocation) {
  rt::MemoryBudget budget(1000);
  EXPECT_TRUE(budget.try_reserve(900));
  EXPECT_FALSE(budget.try_reserve(200));  // no reliefs registered
  EXPECT_EQ(budget.in_use(), 900);

  int64_t stash = 500;
  budget.add_relief("stash", [&stash] {
    const int64_t freed = stash;
    stash = 0;
    return freed;
  });
  EXPECT_TRUE(budget.try_reserve(200));  // relief freed 500
  EXPECT_EQ(stash, 0);
  EXPECT_EQ(budget.in_use(), 600);
  EXPECT_EQ(budget.reliefs(), 1);
  EXPECT_EQ(budget.relieved_bytes(), 500);
  budget.release(600);
  EXPECT_EQ(budget.in_use(), 0);
}

TEST(MemoryBudget, SpikeTransientlyShrinksCapacityOnce) {
  rt::MemoryBudget budget(1000);
  int relief_runs = 0;
  budget.add_relief("count", [&relief_runs] {
    relief_runs += 1;
    return int64_t{400};
  });
  EXPECT_TRUE(budget.try_reserve(600));
  budget.spike(0.5);  // effective capacity 500 for the next admission
  EXPECT_TRUE(budget.try_reserve(100));
  EXPECT_EQ(relief_runs, 1);  // 600 + 100 > 500 forced one relief
  // The spike was consumed: full capacity is back.
  EXPECT_TRUE(budget.try_reserve(300));
  EXPECT_EQ(relief_runs, 1);
}

// ---- SimGpu resource faults -------------------------------------------------

TEST(SimGpuResource, AllocationsReserveAndReleaseAgainstTheBudget) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  rt::MemoryBudget budget(64 * 8);
  gpu.set_memory_budget(&budget);
  {
    rt::DeviceBuffer buf = gpu.allocate(64);
    EXPECT_EQ(budget.in_use(), 64 * 8);
    EXPECT_THROW(gpu.allocate(1), rt::TransientFault);  // over budget, no reliefs
    EXPECT_EQ(gpu.counters().alloc_failures, 0);        // fatal path, not a fault fire
  }
  EXPECT_EQ(budget.in_use(), 0);  // buffer destruction released the reservation
  EXPECT_EQ(budget.peak(), 64 * 8);
}

TEST(SimGpuResource, InjectedResourceFaultsAreCountedAndRelieved) {
  rt::SimGpu gpu(rt::GpuSpec::a6000());
  rt::MemoryBudget budget(100 * 8);
  gpu.set_memory_budget(&budget);
  int64_t stash = 50 * 8;
  budget.add_relief("stash", [&stash] {
    const int64_t freed = stash;
    stash = 0;
    return freed;
  });
  rt::FaultInjector injector(7);
  injector.set_policy(rt::FaultKind::AllocFailure, {.probability = 0, .first_event = 0, .every = 1});
  gpu.set_fault_injector(&injector);
  rt::DeviceBuffer big = gpu.allocate(90);  // fills most of the budget
  EXPECT_EQ(gpu.counters().alloc_failures, 1);
  // Second allocation would overflow; the injected failure already ran the
  // relief chain, so the retry fits.
  rt::DeviceBuffer more = gpu.allocate(20);
  EXPECT_EQ(gpu.counters().alloc_failures, 2);
  EXPECT_EQ(stash, 0);
  EXPECT_GE(budget.reliefs(), 1);
}

// ---- cancel token -----------------------------------------------------------

TEST(CancelToken, RequestAndDeadlinesDrainWithNamedReasons) {
  rt::CancelToken cancel;
  EXPECT_FALSE(cancel.should_drain(100, 1e3));
  cancel.set_step_deadline(50);
  EXPECT_TRUE(cancel.should_drain(50, 0.0));
  EXPECT_EQ(cancel.drain_reason(50, 0.0), "deadline: steps");
  EXPECT_FALSE(cancel.should_drain(49, 0.0));

  rt::CancelToken timed;
  timed.set_virtual_deadline(1.5);
  EXPECT_TRUE(timed.should_drain(0, 2.0));
  EXPECT_EQ(timed.drain_reason(0, 2.0), "deadline: virtual-time");

  rt::CancelToken requested;
  requested.request("operator said so");
  EXPECT_TRUE(requested.should_drain(0, 0.0));
  EXPECT_EQ(requested.drain_reason(0, 0.0), "operator said so");
}

// ---- durable run + resume: bit-exact continuation ---------------------------

// A drained (cancelled) cell run resumed in a fresh solver matches the
// uninterrupted reference bit for bit, with the injector's draw sequence
// continuing across the restart through the manifest's counter state.
TEST(DurableResume, CellCancelDrainThenResumeIsBitExact) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 12;

  const auto make_injector = [] {
    rt::FaultInjector inj(21);
    inj.set_policy(rt::FaultKind::DroppedMessage, {.probability = 0, .first_event = 3, .every = 17});
    inj.set_policy(rt::FaultKind::MemoryPressure, {.probability = 0, .first_event = 2, .every = 5});
    return inj;
  };

  // Uninterrupted reference.
  rt::FaultInjector ref_inj = make_injector();
  CellPartitionedSolver ref(scen, phys, 3);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref_opt.injector = &ref_inj;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  // Interrupted: drain on a step deadline, then resume in a fresh solver.
  const std::string dir = fresh_dir("cell_cancel");
  rt::FaultInjector inj = make_injector();
  rt::CancelToken cancel;
  cancel.set_step_deadline(5);
  {
    CellPartitionedSolver first(scen, phys, 3);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    opt.cancel = &cancel;
    first.enable_resilience(opt);
    first.run(nsteps);
    EXPECT_EQ(first.step_index(), 5);
    EXPECT_EQ(first.resilience_stats().cancel_drains, 1);
  }
  const rt::Generation gen = latest_generation(dir);
  const rt::RunManifest& manifest = gen.manifest;
  EXPECT_EQ(manifest.solver, "cell");
  EXPECT_EQ(manifest.last_step, 5);
  EXPECT_EQ(manifest.cancel_reason, "deadline: steps");

  rt::FaultInjector resumed_inj(manifest.injector_seed);
  resumed_inj.set_policy(rt::FaultKind::DroppedMessage,
                         {.probability = 0, .first_event = 3, .every = 17});
  resumed_inj.set_policy(rt::FaultKind::MemoryPressure,
                         {.probability = 0, .first_event = 2, .every = 5});
  CellPartitionedSolver second(scen, phys, 3);
  ResilienceOptions opt = durable_options(dir);
  opt.injector = &resumed_inj;
  second.resume_from(gen, opt);
  EXPECT_EQ(second.step_index(), 5);
  EXPECT_EQ(second.resilience_stats().resumes, 1);
  second.run(nsteps - static_cast<int>(second.step_index()));

  EXPECT_TRUE(bitwise_equal(second.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

// Same bit-exactness property through the band and multi-GPU solvers (plain
// abandon-and-resume, as after a crash whose generations survived).
TEST(DurableResume, BandAbandonedRunResumesBitExact) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 10;

  BandPartitionedSolver ref(scen, phys, 3);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("band_abandon");
  {
    BandPartitionedSolver first(scen, phys, 3);
    first.enable_resilience(durable_options(dir));
    first.run(6);  // abandoned: the process "dies" here with step 6 checkpointed
  }
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.manifest.solver, "band");
  EXPECT_EQ(gen.manifest.last_step, 6);
  EXPECT_TRUE(gen.manifest.cancel_reason.empty());

  BandPartitionedSolver second(scen, phys, 3);
  second.resume_from(gen, durable_options(dir));
  EXPECT_EQ(second.step_index(), 6);
  second.run(nsteps - static_cast<int>(second.step_index()));
  EXPECT_TRUE(bitwise_equal(second.temperature(), ref.temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

TEST(DurableResume, MultiGpuResumesBitExactUnderResourceFaults) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 10;

  const auto arm = [](rt::FaultInjector& inj) {
    inj.set_policy(rt::FaultKind::AllocFailure, {.probability = 0, .first_event = 1, .every = 4});
    inj.set_policy(rt::FaultKind::MemoryPressure, {.probability = 0, .first_event = 2, .every = 3});
  };
  rt::FaultInjector ref_inj(33);
  arm(ref_inj);
  rt::MemoryBudget ref_budget(int64_t{64} << 20);
  MultiGpuSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref_opt.injector = &ref_inj;
  ref_opt.memory = &ref_budget;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);
  EXPECT_GT(ref.resilience_stats().alloc_failures, 0);
  EXPECT_GT(ref.resilience_stats().pressure_events, 0);

  const std::string dir = fresh_dir("mgpu_resume");
  rt::FaultInjector inj(33);
  arm(inj);
  rt::MemoryBudget budget(int64_t{64} << 20);
  {
    MultiGpuSolver first(scen, phys, 2);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    opt.memory = &budget;
    first.enable_resilience(opt);
    first.run(6);
  }
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.manifest.solver, "mgpu");

  rt::FaultInjector resumed_inj(gen.manifest.injector_seed);
  arm(resumed_inj);
  rt::MemoryBudget resumed_budget(int64_t{64} << 20);
  MultiGpuSolver second(scen, phys, 2);
  ResilienceOptions opt = durable_options(dir);
  opt.injector = &resumed_inj;
  opt.memory = &resumed_budget;
  second.resume_from(gen, opt);
  second.run(nsteps - static_cast<int>(second.step_index()));
  EXPECT_TRUE(bitwise_equal(second.temperature(), ref.temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
}

// ---- resume negative paths --------------------------------------------------

TEST(DurableResume, ManifestForTheWrongSolverOrConfigIsRefused) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("resume_mismatch");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(4);
  }
  const rt::Generation gen = latest_generation(dir);

  BandPartitionedSolver wrong_solver(scen, phys, 2);
  EXPECT_THROW(wrong_solver.resume_from(gen, durable_options(dir)), rt::CheckpointError);

  BteScenario other = scen;
  other.nx = 10;
  CellPartitionedSolver wrong_config(other, phys, 2);
  EXPECT_THROW(wrong_config.resume_from(gen, durable_options(dir)), rt::CheckpointError);
}

namespace {
// Cuts `dir`'s log to its first `keep` bytes: what a crash or power loss
// mid-append leaves.
void cut_log(const std::string& dir, uint64_t keep) {
  std::filesystem::resize_file(log_path(dir), keep);
}

// The newest frame `seq` torn: the log ends halfway through its image.
// Distinct from a lost frame: its header is whole, only its image is short.
void tear_frame(const std::string& dir, int64_t seq) {
  const rt::GenerationLog::Frame f = frame_at(dir, seq);
  cut_log(dir, f.offset + rt::GenerationLog::kHeaderBytes + f.length / 2);
}

// Flips one byte in the middle of frame `seq`'s image, in place: its header
// still reads, its image digest no longer matches.
void damage_frame(const std::string& dir, int64_t seq) {
  const rt::GenerationLog::Frame f = frame_at(dir, seq);
  std::fstream io(log_path(dir), std::ios::binary | std::ios::in | std::ios::out);
  const auto at = static_cast<std::streamoff>(f.offset + rt::GenerationLog::kHeaderBytes +
                                               f.length / 2);
  io.seekg(at);
  char c = 0;
  io.get(c);
  io.seekp(at);
  io.put(static_cast<char>(c ^ 0x10));
}
}  // namespace

TEST(DurableResume, MissingNewestGenerationFallsBackCorruptAllFails) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("resume_fallback");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);  // generations at steps 6 (newest) and 4
  }
  const rt::Generation found = latest_generation(dir);
  ASSERT_GE(found.fallbacks.size(), 1u);
  EXPECT_EQ(found.manifest.last_step, 6);

  // Newest frame lost (the log cut where it began): resume falls back to the
  // older one. No record names the lost frame, so this is not a counted
  // fallback.
  cut_log(dir, frame_at(dir, found.seq).offset);
  {
    const rt::Generation gen = latest_generation(dir);
    EXPECT_EQ(gen.seq, found.fallbacks[0]);
    EXPECT_EQ(gen.skipped, 0);
    CellPartitionedSolver s(scen, phys, 2);
    s.resume_from(gen, durable_options(dir));
    EXPECT_EQ(s.step_index(), 4);
    EXPECT_EQ(s.resilience_stats().ckpt_generation_fallbacks, 0);
  }

  // Every generation unreadable: a named error, not a silent restart.
  const std::string again = fresh_dir("resume_fallback");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(again));
    s.run(6);
  }
  const rt::Generation both = latest_generation(again);
  ASSERT_GE(both.fallbacks.size(), 1u);
  damage_frame(again, both.seq);
  for (const int64_t seq : both.fallbacks) damage_frame(again, seq);
  try {
    rt::find_latest_generation(again);
    FAIL() << "a directory of unreadable generations was taken for a fresh start";
  } catch (const rt::CheckpointError& err) {
    EXPECT_NE(std::string(err.what()).find("no readable checkpoint generation"), std::string::npos)
        << err.what();
  }
}

TEST(DurableResume, TruncatedNewestGenerationFallsBack) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 8;

  CellPartitionedSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("resume_truncated");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);  // generations at steps 6 (newest) and 4
  }
  const rt::Generation found = latest_generation(dir);
  ASSERT_GE(found.fallbacks.size(), 1u);

  // Newest frame torn (its header whole, its image cut short): discovery
  // must reject it by content and fall back to the older generation, then
  // finish bit-exact.
  tear_frame(dir, found.seq);
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.skipped, 1);
  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(gen, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 4);
  EXPECT_GE(resumed.resilience_stats().ckpt_generation_fallbacks, 1);
  resumed.run(nsteps - static_cast<int>(resumed.step_index()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_intensity(), ref.gather_intensity()));
}

// A fallback restores the whole run state of the generation it lands on: the
// injector counters and event log come from the same file as the fields, so
// the finished run's draw stream is positionally identical to the
// uninterrupted run's, not the newer generation's.
TEST(DurableResume, FallbackResumeRestoresThatGenerationsDrawSequence) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 12;
  const auto make_injector = [](uint64_t seed) {
    rt::FaultInjector inj(seed);
    inj.set_policy(rt::FaultKind::DroppedMessage, {.probability = 0, .first_event = 3, .every = 17});
    inj.set_policy(rt::FaultKind::MemoryPressure, {.probability = 0, .first_event = 2, .every = 5});
    return inj;
  };

  rt::FaultInjector ref_inj = make_injector(21);
  CellPartitionedSolver ref(scen, phys, 3);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref_opt.injector = &ref_inj;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("fallback_draws");
  {
    rt::FaultInjector inj = make_injector(21);
    CellPartitionedSolver first(scen, phys, 3);
    ResilienceOptions opt = durable_options(dir);
    opt.injector = &inj;
    first.enable_resilience(opt);
    first.run(6);  // generations at steps 6 (newest) and 4
  }
  tear_frame(dir, latest_generation(dir).seq);
  const rt::Generation gen = latest_generation(dir);
  ASSERT_EQ(gen.manifest.last_step, 4);

  rt::FaultInjector resumed_inj = make_injector(gen.manifest.injector_seed);
  CellPartitionedSolver second(scen, phys, 3);
  ResilienceOptions opt = durable_options(dir);
  opt.injector = &resumed_inj;
  second.resume_from(gen, opt);
  EXPECT_EQ(second.step_index(), 4);
  second.run(nsteps - static_cast<int>(second.step_index()));

  EXPECT_TRUE(bitwise_equal(second.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(second.gather_intensity(), ref.gather_intensity()));
  const std::vector<rt::FaultCounter> got = resumed_inj.export_counters();
  const std::vector<rt::FaultCounter> want = ref_inj.export_counters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, want[i].kind) << i;
    EXPECT_EQ(got[i].site, want[i].site) << i;
    EXPECT_EQ(got[i].consulted, want[i].consulted) << got[i].site;
    EXPECT_EQ(got[i].fired, want[i].fired) << got[i].site;
  }
  ASSERT_EQ(resumed_inj.events().size(), ref_inj.events().size());
  for (size_t i = 0; i < ref_inj.events().size(); ++i) {
    EXPECT_EQ(resumed_inj.events()[i].kind, ref_inj.events()[i].kind) << i;
    EXPECT_EQ(resumed_inj.events()[i].site, ref_inj.events()[i].site) << i;
    EXPECT_EQ(resumed_inj.events()[i].event_index, ref_inj.events()[i].event_index) << i;
  }
}

TEST(DurableResume, ResumedRunAdoptsOlderGenerationsAsFallback) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("resume_adopt");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);
  }
  const rt::Generation first = latest_generation(dir);
  ASSERT_GE(first.fallbacks.size(), 1u);

  // Resume and immediately "crash" (drop the solver). The resume commits
  // nothing — the generation it read is already in the log — so the older
  // generation stays behind it as the fallback.
  const uint64_t log_bytes = std::filesystem::file_size(log_path(dir));
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.resume_from(first, durable_options(dir));
    EXPECT_EQ(s.step_index(), 6);
  }
  EXPECT_EQ(std::filesystem::file_size(log_path(dir)), log_bytes);
  const rt::Generation second = latest_generation(dir);
  EXPECT_EQ(second.seq, first.seq);
  ASSERT_GE(second.fallbacks.size(), 1u) << "post-resume log lost the older generation";
  EXPECT_NE(second.seq, second.fallbacks[0]);

  // The resumed store adopts the generations it found within its retention:
  // its next commit keeps step 6 as the fallback and nothing older.
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.resume_from(second, durable_options(dir));
    s.run(2);
  }
  const rt::Generation third = latest_generation(dir);
  EXPECT_EQ(third.manifest.last_step, 8);
  ASSERT_GE(third.fallbacks.size(), 1u);
  EXPECT_EQ(third.fallbacks[0], first.seq);
  rt::CheckpointStore retained(dir, 2);
  retained.resume(third);
  EXPECT_EQ(retained.disk_paths(),
            (std::vector<std::string>{third.name, frame_name(dir, first.seq)}))
      << "retention kept a generation older than the adopted one";

  // Second crash with the newest generation torn: the adopted fallback is
  // what makes this resumable at all.
  tear_frame(dir, third.seq);
  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(latest_generation(dir), durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 6);
  EXPECT_GE(resumed.resilience_stats().ckpt_generation_fallbacks, 1);
}

// Discovery reads only the directory's `generations.log` and validates every
// fallback by content: a damaged older frame is never adopted as a fake
// fallback, and other files — a compaction's leftover, old generation files
// — are not generations.
TEST(DurableResume, DiscoverySkipsDamagedFallbacksAndForeignNames) {
  EXPECT_FALSE(rt::find_latest_generation("durability_missing_dir").has_value());
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("discovery");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);
  }
  const rt::Generation found = latest_generation(dir);
  ASSERT_GE(found.fallbacks.size(), 1u);
  const int64_t damaged = found.fallbacks[0];
  damage_frame(dir, damaged);
  const char* foreign[] = {"/generations.log.compact", "/checkpoint_9.bin", "/generations.log.tmp"};
  for (const char* name : foreign) std::ofstream(dir + name) << "not a generation";
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.seq, found.seq);
  EXPECT_EQ(gen.skipped, 0);
  EXPECT_EQ(std::count(gen.fallbacks.begin(), gen.fallbacks.end(), damaged), 0);
  EXPECT_EQ(gen.fallbacks.size(), found.fallbacks.size() - 1);
  for (const char* name : foreign) std::remove((dir + name).c_str());
}

// A fresh run in a directory that already holds generations numbers its
// frames past them — a committed frame is never rewritten — and the next
// resume picks the fresh run's generation.
TEST(DurableResume, FreshStoreNumbersPastExistingGenerations) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("number_past");
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(6);  // commits #1..#3 at steps 2, 4, 6
  }
  EXPECT_EQ(latest_generation(dir).name, frame_name(dir, 3));
  {
    CellPartitionedSolver s(scen, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(2);
  }
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.name, frame_name(dir, 4));
  EXPECT_EQ(gen.manifest.last_step, 2);
  EXPECT_EQ(gen.manifest.saves, 4);
  EXPECT_EQ(read_frame(dir, 3).step, 6);
  // The older run's later steps are no fallback for a step-2 generation.
  for (const int64_t seq : gen.fallbacks) EXPECT_LE(read_frame(dir, seq).step, 2) << seq;
  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(gen, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 2);
}

TEST(DurableResume, GenerationForAnotherConfigIsRefusedByName) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const std::string dir = fresh_dir("other_config");
  BteScenario other = scen;
  other.dt = 2 * scen.dt;  // same sizes: only the config hash tells them apart
  {
    CellPartitionedSolver s(other, phys, 2);
    s.enable_resilience(durable_options(dir));
    s.run(2);
  }
  const rt::Generation gen = latest_generation(dir);
  CellPartitionedSolver mine(scen, phys, 2);
  try {
    mine.resume_from(gen, durable_options(dir));
    FAIL() << "resumed a generation written for another configuration";
  } catch (const rt::CheckpointError& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("config-hash mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(gen.name), std::string::npos) << msg;
  }
}

TEST(DurableResume, OptionValidationCoversDurableKnobs) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  CellPartitionedSolver s(scen, phys, 2);

  ResilienceOptions bad_generations = durable_options("x");
  bad_generations.durable.disk_generations = 0;
  EXPECT_THROW(s.enable_resilience(bad_generations), std::invalid_argument);

  ResilienceOptions no_checkpoints = durable_options("x");
  no_checkpoints.checkpoint.interval = 0;
  no_checkpoints.max_rollbacks = 0;
  EXPECT_THROW(s.enable_resilience(no_checkpoints), std::invalid_argument);

  const rt::Generation gen;  // never mind the contents:
  ResilienceOptions no_dir;  // resume without a durable dir is refused first
  EXPECT_THROW(s.resume_from(gen, no_dir), std::invalid_argument);
}

// ---- generation image format ------------------------------------------------

// A generation carries its run manifest in the image: state and run state
// round-trip through one file, and an image without one cannot be resumed.
TEST(DurableFormat, ImageCarriesItsRunManifest) {
  rt::RunManifest m;
  m.solver = "band";
  m.config_hash = 0xfeedULL;
  m.injector_counters = {{2, "halo", 12, 1}};
  m.cancel_reason = "deadline: steps";
  const std::vector<std::byte> image = rt::serialize(tiny_snapshot(5), &m);
  rt::RunManifest back;
  const rt::Snapshot snap = rt::deserialize(image, &back);
  EXPECT_EQ(snap.step, 5);
  EXPECT_EQ(snap.field("I")[2], 8.0);
  EXPECT_EQ(back.solver, "band");
  EXPECT_EQ(back.config_hash, 0xfeedULL);
  ASSERT_EQ(back.injector_counters.size(), 1u);
  EXPECT_EQ(back.injector_counters[0].consulted, 12);
  EXPECT_EQ(back.cancel_reason, "deadline: steps");
  EXPECT_EQ(rt::deserialize(image).field("T")[1], 301.0);  // state-only reads skip it
  EXPECT_THROW(rt::deserialize(rt::serialize(tiny_snapshot(5)), &back), rt::CheckpointError);
}

namespace {

// An image in the byte-at-a-time layouts v2 (no manifest section) and v3
// (a manifest length after the fields), sealed with the current trailer so
// that only its version can refuse it.
std::vector<std::byte> legacy_image(uint64_t version) {
  std::vector<std::byte> img;
  const auto put = [&img](uint64_t v) {
    for (int i = 0; i < 8; ++i) img.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  };
  const std::vector<double> T = {300.0, 301.0};
  const auto raw = std::as_bytes(std::span<const double>(T));
  put(0x46434e4b50543031ULL);  // magic
  put(version);
  put(7);  // step
  put(1);  // one field
  put(1);
  img.push_back(static_cast<std::byte>('T'));
  put(T.size());
  img.insert(img.end(), raw.begin(), raw.end());
  put(rt::fnv1a64(raw));
  if (version >= 3) put(0);  // no manifest
  put(rt::digest_words(img));
  return img;
}

std::string refusal(std::span<const std::byte> image, rt::RunManifest* m = nullptr) {
  try {
    rt::deserialize(image, m);
  } catch (const rt::CheckpointError& err) {
    return err.what();
  }
  return "";
}

// A v4 image with a manifest and two fields of distinct name lengths, so that
// names, their padding, payloads and the padded manifest text all appear.
std::vector<std::byte> sectioned_image(rt::RunManifest* m) {
  m->solver = "cell";
  m->config_hash = 0xabcdefULL;
  m->injector_counters = {{1, "halo", 3, 1}};
  rt::Snapshot snap;
  snap.step = 9;
  snap.add("I", std::vector<double>{1.0, -0.0, 3.5});
  snap.add("beta", std::vector<double>{2.0, 4.0});
  return rt::serialize(snap, m);
}

}  // namespace

// The v2 layout (no manifest section) is refused by version, never parsed
// with the v4 walk.
TEST(DurableFormat, V2ImageIsAnUnsupportedVersion) {
  const std::string msg = refusal(legacy_image(2));
  EXPECT_NE(msg.find("unsupported checkpoint version 2"), std::string::npos) << msg;
}

// So is v3, the FNV-1a layout v4 replaced: a durable job whose generations
// are all v3 starts fresh.
TEST(DurableFormat, V3ImageIsAnUnsupportedVersion) {
  const std::string msg = refusal(legacy_image(3));
  EXPECT_NE(msg.find("unsupported checkpoint version 3"), std::string::npos) << msg;
}

// A manifest length whose padded text runs past the end of the image is a
// named error at the bound check — never a read out of the buffer.
TEST(DurableFormat, ManifestLengthOverrunIsANamedError) {
  rt::RunManifest m;
  m.solver = "cell";
  const std::vector<std::byte> good = rt::serialize(tiny_snapshot(3), &m);
  const size_t text_words = (rt::manifest_to_json(m).size() + 7) / 8 * 8;
  const size_t length_at = good.size() - 8 - text_words - 8;  // just after the fields
  // One byte into the trailing checksum, and far past the end.
  for (uint64_t len : {uint64_t{text_words + 1}, uint64_t{1} << 62}) {
    std::vector<std::byte> bad = good;
    for (int i = 0; i < 8; ++i)
      bad[length_at + static_cast<size_t>(i)] = static_cast<std::byte>((len >> (8 * i)) & 0xff);
    const std::string msg = refusal(bad, &m);
    EXPECT_NE(msg.find("manifest section"), std::string::npos) << len << ": " << msg;
  }
}

// Every single-bit flip anywhere in a v4 image — header, names and their
// padding, counts, payloads, field checksums, the manifest and its padding,
// the trailer — is refused, whether or not the reader asks for the manifest.
// A flip in a payload names its field.
TEST(DurableFormat, V4RefusesEverySingleBitFlip) {
  rt::RunManifest m;
  const std::vector<std::byte> good = sectioned_image(&m);
  ASSERT_EQ(good.size() % 8, 0u);
  // Payload byte ranges: header (32), then per field name_len + padded name
  // + count before the doubles and the field checksum after them.
  const size_t i_payload = 32 + 8 + 8 + 8;
  const size_t beta_payload = i_payload + 3 * 8 + 8 + 8 + 8 + 8;
  for (size_t off = 0; off < good.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> bad = good;
      bad[off] ^= static_cast<std::byte>(1u << bit);
      rt::RunManifest back;
      const std::string with = refusal(bad, &back);
      const std::string without = refusal(bad);
      ASSERT_FALSE(with.empty()) << "flip at byte " << off << " bit " << bit << " accepted";
      ASSERT_FALSE(without.empty()) << "flip at byte " << off << " bit " << bit << " accepted";
      if (off >= i_payload && off < i_payload + 3 * 8) {
        EXPECT_NE(with.find("checksum mismatch in field 0 ('I')"), std::string::npos) << with;
      }
      if (off >= beta_payload && off < beta_payload + 2 * 8) {
        EXPECT_NE(with.find("checksum mismatch in field 1 ('beta')"), std::string::npos) << with;
      }
    }
  }
  rt::RunManifest back;
  EXPECT_EQ(rt::deserialize(good, &back).field("beta")[1], 4.0);
  EXPECT_EQ(back.config_hash, 0xabcdefULL);
}

// Every prefix of a v4 image is refused with an error that names where the
// cut fell: the header, a field (by index and name), or the manifest section
// (which must leave room for the trailing checksum).
TEST(DurableFormat, V4RefusesEveryTruncationByName) {
  rt::RunManifest m;
  const std::vector<std::byte> good = sectioned_image(&m);
  const size_t fields_end = 32 + (8 + 8 + 8 + 3 * 8 + 8) + (8 + 8 + 8 + 2 * 8 + 8);
  for (size_t keep = 0; keep < good.size(); ++keep) {
    const std::span<const std::byte> cut(good.data(), keep);
    for (rt::RunManifest* want : {&m, static_cast<rt::RunManifest*>(nullptr)}) {
      const std::string msg = refusal(cut, want);
      ASSERT_NE(msg.find("truncated"), std::string::npos) << "keep=" << keep << ": " << msg;
      const char* where = keep < 48 ? "header" : keep < fields_end ? "field" : "manifest";
      EXPECT_NE(msg.find(where), std::string::npos) << keep << ": " << msg;
    }
  }
}

// The bulk digest: a single changed word anywhere changes it, and it chains
// like fnv1a64.
TEST(DurableFormat, WordDigestSeesEverySingleWordChange) {
  std::vector<double> v(37);
  for (size_t i = 0; i < v.size(); ++i) v[i] = 0.5 * static_cast<double>(i) - 3.0;
  const uint64_t base = rt::checksum_doubles(v);
  for (size_t i = 0; i < v.size(); ++i) {
    for (double other : {-v[i], v[i] + 1.0, std::nextafter(v[i], 1e9)}) {
      if (other == v[i] && std::signbit(other) == std::signbit(v[i])) continue;
      std::vector<double> w = v;
      w[i] = other;
      EXPECT_NE(rt::checksum_doubles(w), base) << i;
    }
  }
  const auto bytes = std::as_bytes(std::span<const double>(v));
  EXPECT_EQ(rt::digest_words(bytes.subspan(80), rt::digest_words(bytes.subspan(0, 80))),
            rt::digest_words(bytes));
}

// ---- chaos: resource class composes with the rest ---------------------------

TEST(DurabilityChaos, ResourceClassScheduleSurvivesTheOracle) {
  ChaosCampaign campaign(tiny_scenario(), tiny_physics(), ChaosDefense{});
  rt::ChaosSchedule sched;
  sched.seed = 99;
  sched.solver = "cell";
  sched.nparts = 3;
  sched.nsteps = 10;
  sched.faults = {{rt::FaultKind::AllocFailure, "cell-mem", 2, 1, 2},
                  {rt::FaultKind::MemoryPressure, "cell-mem", 4, 2, 2},
                  {rt::FaultKind::DroppedMessage, "halo", 10, 5, 2}};
  const ChaosOutcome out = campaign.run_schedule(sched);
  EXPECT_TRUE(out.ok()) << out.detail;
  EXPECT_GT(out.stats.alloc_failures, 0);
  EXPECT_GT(out.stats.pressure_events, 0);
}

// ---- crash harness: SIGKILL between a frame's append and its sync -----------

#ifdef FINCH_HAVE_FORK
// The child is killed right after the third generation's frame is appended
// to the log, before its sync. A kill keeps the page cache, so the frame is
// whole: the parent resumes from it (step 6) and finishes bit-exactly. The
// earlier frames were never rewritten.
TEST(CrashHarness, SigkillBetweenAppendAndSyncResumesFromThatFrame) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 8;

  CellPartitionedSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("crash_append");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: SIGKILL between the third generation's append and its sync
    // (step 0 is held in memory; steps 2, 4 and 6 append #1, #2 and #3).
    static int appends = 0;
    rt::set_checkpoint_commit_hook([](const std::string& what, rt::CommitPhase phase) {
      if (phase != rt::CommitPhase::AfterAppend) return;
      if (what.find(rt::GenerationLog::kFileName) == std::string::npos) return;
      if (++appends == 3) ::raise(SIGKILL);
    });
    CellPartitionedSolver victim(scen, phys, 2);
    victim.enable_resilience(durable_options(dir));
    victim.run(nsteps);
    ::_exit(42);  // unreachable when the kill landed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The newest frame is the unsynced third (step 6), whole and readable.
  const rt::Generation gen = latest_generation(dir);
  EXPECT_EQ(gen.seq, 3);
  EXPECT_EQ(gen.skipped, 0);
  EXPECT_EQ(gen.manifest.last_step, 6);
  EXPECT_EQ(read_frame(dir, gen.seq).step, 6);

  CellPartitionedSolver resumed(scen, phys, 2);
  resumed.resume_from(gen, durable_options(dir));
  EXPECT_EQ(resumed.step_index(), 6);
  resumed.run(nsteps - static_cast<int>(resumed.step_index()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(resumed.gather_intensity(), ref.gather_intensity()));
}

// Killed at step 1 with interval 2: no generation was ever committed (step 0
// lives in memory only), so the directory says "start at step 0" and the
// restart finishes bit-exactly.
TEST(CrashHarness, SigkillBeforeFirstGenerationRestartsFromStepZero) {
  const auto scen = tiny_scenario();
  const auto phys = tiny_physics();
  const int nsteps = 8;

  CellPartitionedSolver ref(scen, phys, 2);
  ResilienceOptions ref_opt;
  ref_opt.checkpoint.interval = 2;
  ref.enable_resilience(ref_opt);
  ref.run(nsteps);

  const std::string dir = fresh_dir("crash_step1");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CellPartitionedSolver victim(scen, phys, 2);
    victim.enable_resilience(durable_options(dir));
    victim.run(1);
    ::raise(SIGKILL);
    ::_exit(42);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << WEXITSTATUS(status);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  EXPECT_FALSE(rt::find_latest_generation(dir).has_value());
  CellPartitionedSolver restarted(scen, phys, 2);
  restarted.enable_resilience(durable_options(dir));
  EXPECT_EQ(restarted.step_index(), 0);
  restarted.run(nsteps);
  EXPECT_TRUE(bitwise_equal(restarted.gather_temperature(), ref.gather_temperature()));
  EXPECT_TRUE(bitwise_equal(restarted.gather_intensity(), ref.gather_intensity()));
}
#endif  // FINCH_HAVE_FORK

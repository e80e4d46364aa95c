// Elastic-degradation bench: completion-time overhead vs number of permanent
// failures survived.
//
// Sweeps k = 0..3 injected rank deaths over a fixed-work cell-partitioned run
// (scheduled RankFailure injection, deterministically drawn victims), then
// exercises the band-partitioned and multi-GPU solvers once each under an
// explicit kill. Every run must land on the fault-free DirectSolver answer
// bit-for-bit — shrinking to survivors trades time (detection + checkpoint
// respread + replayed steps + a smaller machine), never correctness. The
// overhead column prices only the modeled elastic bill (recovery +
// redistribution phases); measured compute is printed but not gated, since
// fewer survivors legitimately compute slower.
//
// Usage: bench_elastic [--seed N] [--json BENCH_elastic.json]
// Exit status is nonzero if any PAPER-CHECK fails (the CI fault-sweep gate).
#include <cmath>
#include <memory>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "fig_common.hpp"
#include "runtime/fault.hpp"

using namespace finch;
using namespace finch::bte;

using bench::bitwise_equal;
using bench::small_scenario;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  bench::print_header("Elastic", "completion-time overhead vs permanent failures survived");

  const BteScenario s = small_scenario();
  auto phys = std::make_shared<const BtePhysics>(s.nbands, s.ndirs);
  const int nparts = 6;
  const int nsteps = 24;

  DirectSolver serial(s, phys);
  serial.run(nsteps);
  const auto& truth_T = serial.temperature();

  bench::JsonBench json = bench::bench_json("bench_elastic", args);
  json.set("nparts", nparts);
  json.set("nsteps", nsteps);

  std::printf("%-9s %9s %9s %9s %12s %14s %14s %9s\n", "failures", "survivors", "evicted",
              "replayed", "t-total(ms)", "t-detect(ms)", "t-respread(ms)", "overhead");

  bool all_exact = true;
  bool survivors_match = true;
  double elastic_bill_at_max = 0.0;
  std::vector<double> overheads;

  for (int failures = 0; failures <= 3; ++failures) {
    rt::FaultInjector inj(args.seed);
    rt::FaultPolicy p;
    p.every = 6;  // one consult per step boundary: a death roughly every 6 steps
    p.first_event = 5;
    p.max_injections = failures;
    inj.set_policy(rt::FaultKind::RankFailure, p);

    CellPartitionedSolver part(s, phys, nparts);
    ResilienceOptions opt;
    opt.injector = &inj;
    opt.checkpoint.interval = 6;
    part.enable_resilience(opt);
    part.run(nsteps);

    const rt::PhaseTimes& ph = part.phases();
    const ResilienceStats& rs = part.resilience_stats();
    // The elastic bill is fully modeled (suspicion timeouts + checkpoint
    // respread over the interconnect), so it is the deterministic overhead
    // series the figure plots; measured compute is context only.
    const double bill = ph.recovery + ph.redistribution;
    overheads.push_back(bill);

    const bool exact = bitwise_equal(part.gather_temperature(), truth_T) &&
                       bitwise_equal(part.gather_intensity(), serial.intensity());
    all_exact = all_exact && exact;
    survivors_match = survivors_match && part.nparts() == nparts - failures &&
                      rs.evictions == failures;

    std::printf("%-9d %9d %9lld %9lld %12.4f %14.6f %14.6f %9.4f\n", failures, part.nparts(),
                static_cast<long long>(rs.evictions), static_cast<long long>(rs.replayed_steps),
                ph.total() * 1e3, ph.recovery * 1e3, ph.redistribution * 1e3, bill * 1e3);

    json.begin_row();
    json.cell("failures", failures);
    json.cell("survivors", part.nparts());
    json.cell("evictions", static_cast<double>(rs.evictions));
    json.cell("replayed_steps", static_cast<double>(rs.replayed_steps));
    json.cell("total_s", ph.total());
    json.cell("recovery_s", ph.recovery);
    json.cell("redistribution_s", ph.redistribution);
    json.cell("elastic_bill_s", bill);
    json.cell("bit_exact", exact ? 1.0 : 0.0);

    if (failures == 3) elastic_bill_at_max = bill;
  }

  // One explicit kill each on the other two solver families: same invariants,
  // different redistribution mechanics (band rebalance / device shard moves).
  {
    BandPartitionedSolver band(s, phys, 4);
    ResilienceOptions opt;
    opt.checkpoint.interval = 6;
    band.enable_resilience(opt);
    band.run(nsteps / 2);
    band.kill_rank(1);
    band.run(nsteps - nsteps / 2);
    const bool exact = bitwise_equal(band.temperature(), truth_T) &&
                       bitwise_equal(band.gather_intensity(), serial.intensity());
    all_exact = all_exact && exact;
    std::printf("band      %9d %9lld %9lld %12.4f %14.6f %14.6f\n", band.nparts(),
                static_cast<long long>(band.resilience_stats().evictions),
                static_cast<long long>(band.resilience_stats().replayed_steps),
                band.phases().total() * 1e3, band.phases().recovery * 1e3,
                band.phases().redistribution * 1e3);
    json.begin_row();
    json.cell("band_survivors", band.nparts());
    json.cell("band_bit_exact", exact ? 1.0 : 0.0);
    bench::check(exact && band.nparts() == 3,
                 "band-partitioned solver survives a rank death bit-exactly");
  }
  {
    MultiGpuSolver multi(s, phys, 3);
    ResilienceOptions opt;
    opt.checkpoint.interval = 6;
    multi.enable_resilience(opt);
    multi.run(nsteps / 2);
    multi.kill_rank(0);
    multi.run(nsteps - nsteps / 2);
    const bool exact = bitwise_equal(multi.temperature(), truth_T) &&
                       bitwise_equal(multi.gather_intensity(), serial.intensity());
    all_exact = all_exact && exact;
    std::printf("multi-gpu %9d %9lld %9lld %12.4f %14.6f %14.6f\n", multi.nparts(),
                static_cast<long long>(multi.resilience_stats().evictions),
                static_cast<long long>(multi.resilience_stats().replayed_steps),
                multi.phases().total() * 1e3, multi.phases().recovery * 1e3,
                multi.phases().redistribution * 1e3);
    json.begin_row();
    json.cell("gpu_survivors", multi.nparts());
    json.cell("gpu_bit_exact", exact ? 1.0 : 0.0);
    bench::check(exact && multi.nparts() == 2 && multi.phases().redistribution > 0.0,
                 "multi-GPU solver survives a device loss and bills the shard re-upload");
  }

  bool monotone = true;
  for (size_t i = 1; i < overheads.size(); ++i)
    monotone = monotone && overheads[i] > overheads[i - 1];

  bench::check(all_exact,
               "every degraded run matches the fault-free temperature field bit-for-bit");
  bench::check(survivors_match, "k injected deaths leave exactly nparts-k survivors");
  bench::check(monotone, "the modeled elastic bill grows with every additional failure");
  bench::check(elastic_bill_at_max > 0.0, "surviving 3 failures charges visible virtual time");
  return bench::finish_bench(json, args);
}

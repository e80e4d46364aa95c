// Silent-data-corruption defense: ABFT checksum primitives, silent bit-flip
// injection, verify-on-receipt message sidecars, and — per distributed
// solver — detection within one step, localization to a block, repair without
// full rollback, and bit-exact final fields. The "same block fails twice"
// escalation to checkpoint rollback is exercised through the dedicated
// repair-site policies.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "bte/direct_solver.hpp"
#include "bte/multi_gpu_solver.hpp"
#include "bte/partitioned_solver.hpp"
#include "bte/resilience.hpp"
#include "runtime/abft.hpp"
#include "runtime/fault.hpp"
#include "runtime/simmpi.hpp"

using namespace finch;
using namespace finch::bte;

namespace {

std::shared_ptr<const BtePhysics> phys() {
  static auto p = std::make_shared<const BtePhysics>(6, 8);
  return p;
}

BteScenario scen() {
  BteScenario s;
  s.nx = 10;
  s.ny = 8;
  s.lx = s.ly = 50e-6;
  s.hot_w = 20e-6;
  s.ndirs = 8;
  s.nbands = 6;
  s.dt = 1e-12;
  return s;
}

void expect_bitwise_equal(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << "index " << i;
}

std::vector<double> ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.25 * static_cast<double>(i) + 1.0;
  return v;
}

}  // namespace

// ---- ABFT primitives ---------------------------------------------------------

// One changed element always changes the word digest, whatever changed in
// it: any one of its 64 bits, the sign of a zero, or a NaN's payload. Checked
// at every element of a ledger whose last block is ragged, and of the
// sidecar over the whole array.
TEST(Abft, DigestCatchesEveryChangeToOneElement) {
  constexpr size_t kBlock = 7;
  const std::vector<double> data = ramp(18);  // blocks of 7, 7 and a ragged 4
  const auto with_bits = [](std::vector<double> v, size_t i, uint64_t bits) {
    std::memcpy(&v[i], &bits, sizeof(bits));
    return v;
  };
  const auto caught = [&](const std::vector<double>& base, const std::vector<double>& hit,
                          size_t i) {
    rt::BlockLedger ledger(base.size(), kBlock);
    ledger.update(base);
    const std::vector<size_t> bad = ledger.verify(hit);
    return bad.size() == 1 && bad[0] == i / kBlock &&
           !rt::block_checksum(hit).matches(rt::block_checksum(base));
  };
  constexpr uint64_t kNegZero = 1ULL << 63;
  constexpr uint64_t kQuietNan = 0x7ff8000000000000ULL;
  for (size_t i = 0; i < data.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, &data[i], sizeof(bits));
    for (int bit = 0; bit < 64; ++bit)
      EXPECT_TRUE(caught(data, with_bits(data, i, bits ^ (1ULL << bit)), i))
          << "element " << i << ", bit " << bit;
    const std::vector<double> pos_zero = with_bits(data, i, 0);
    EXPECT_TRUE(caught(pos_zero, with_bits(data, i, kNegZero), i)) << "-0.0 at " << i;
    EXPECT_TRUE(caught(with_bits(data, i, kNegZero), pos_zero, i)) << "+0.0 at " << i;
    EXPECT_TRUE(caught(with_bits(data, i, kQuietNan | 1), with_bits(data, i, kQuietNan | 2), i))
        << "NaN payload at " << i;
  }
}

TEST(Abft, ComparisonIsBitExactNotValueBased) {
  // 0.0 and -0.0 compare equal as values; the checksum must tell them apart.
  const std::vector<double> pos = {0.0, 1.0};
  const std::vector<double> neg = {-0.0, 1.0};
  EXPECT_FALSE(rt::block_checksum(neg).matches(rt::block_checksum(pos)));
  EXPECT_TRUE(rt::block_checksum(pos).matches(rt::block_checksum(pos)));
}

TEST(Abft, BlockLedgerLocalizesAndHeals) {
  std::vector<double> data = ramp(120);
  rt::BlockLedger ledger(data.size(), 24);
  EXPECT_EQ(ledger.num_blocks(), 5u);
  ledger.update(data);
  EXPECT_TRUE(ledger.verify(data).empty());

  uint64_t bits;
  std::memcpy(&bits, &data[77], sizeof(bits));
  bits ^= 1ULL << 13;
  std::memcpy(&data[77], &bits, sizeof(bits));

  const auto bad = ledger.verify(data);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 77u / 24u);  // localized to the containing block only
  const auto range = ledger.range(bad[0]);
  EXPECT_LE(range.begin, 77u);
  EXPECT_GT(range.end, 77u);

  ledger.update_block(bad[0], data);  // owner re-adopts after a repair
  EXPECT_TRUE(ledger.verify(data).empty());
}

TEST(Abft, RaggedLastBlockIsCovered) {
  std::vector<double> data = ramp(50);
  rt::BlockLedger ledger(data.size(), 16);
  EXPECT_EQ(ledger.num_blocks(), 4u);
  EXPECT_EQ(ledger.range(3).begin, 48u);
  EXPECT_EQ(ledger.range(3).end, 50u);
  ledger.update(data);
  data[49] = -data[49];
  const auto bad = ledger.verify(data);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 3u);
}

// The ledger folds up to four blocks side by side: whatever the grouping —
// one to nine blocks, with or without a ragged last one — every stored
// digest is the one-block fold of its range, which is checksum_doubles of
// it, and one changed element is reported in exactly its own block.
TEST(Abft, LedgerFoldsEveryGroupingLikeOneBlockAtATime) {
  constexpr size_t kBlock = 7;
  for (size_t nblocks = 1; nblocks <= 9; ++nblocks) {
    for (const bool ragged : {false, true}) {
      const size_t n = ragged ? (nblocks - 1) * kBlock + 3 : nblocks * kBlock;
      const std::vector<double> data = ramp(n);
      rt::BlockLedger ledger(n, kBlock);
      ASSERT_EQ(ledger.num_blocks(), nblocks);
      ledger.update(data);
      for (size_t b = 0; b < nblocks; ++b) {
        const auto r = ledger.range(b);
        const auto one =
            rt::block_checksum(std::span<const double>(data).subspan(r.begin, r.end - r.begin));
        EXPECT_TRUE(ledger.checksum(b).matches(one)) << nblocks << " blocks, block " << b;
        EXPECT_EQ(ledger.checksum(b).digest, one.digest);
        EXPECT_EQ(one.digest, rt::checksum_doubles(
                                  std::span<const double>(data).subspan(r.begin, r.end - r.begin)));
      }
      EXPECT_TRUE(ledger.verify(data).empty());
      for (size_t i = 0; i < n; ++i) {
        std::vector<double> hit = data;
        hit[i] = std::nextafter(hit[i], 0.0);
        const auto bad = ledger.verify(hit);
        ASSERT_EQ(bad.size(), 1u) << nblocks << " blocks, element " << i;
        EXPECT_EQ(bad[0], i / kBlock);
      }
    }
  }
}

// ---- silent fault injection --------------------------------------------------

TEST(SilentFaults, FlipBitStaysFiniteAndMantissaOnly) {
  rt::FaultInjector inj(99);
  rt::FaultPolicy fire;
  fire.every = 1;
  inj.set_policy(rt::FaultKind::BitFlipDeviceArray, fire);
  std::vector<double> data = ramp(64);
  const std::vector<double> orig = data;
  for (int k = 0; k < 40; ++k) {
    // Real call sites consult first; the fired event advances the draw key,
    // so consecutive flips land on different (element, bit) pairs.
    ASSERT_TRUE(inj.should_fault(rt::FaultKind::BitFlipDeviceArray, "t"));
    const size_t idx = inj.flip_bit(data, rt::FaultKind::BitFlipDeviceArray, "t");
    ASSERT_LT(idx, data.size());
    EXPECT_TRUE(std::isfinite(data[idx]));
    uint64_t a, b;
    std::memcpy(&a, &data[idx], sizeof(a));
    std::memcpy(&b, &orig[idx], sizeof(b));
    // The exponent and sign bits are untouched, so the damage is silent by
    // construction: the value stays finite and plausibly scaled.
    EXPECT_EQ(a >> 52, b >> 52) << "iteration " << k;
  }
  EXPECT_NE(data, orig);
}

TEST(SilentFaults, FlipBitIsDeterministicInSeed) {
  rt::FaultPolicy fire;
  fire.every = 1;
  rt::FaultInjector a(1234), b(1234), c(4321);
  for (rt::FaultInjector* i : {&a, &b, &c}) i->set_policy(rt::FaultKind::BitFlipMessage, fire);
  std::vector<double> da = ramp(32), db = ramp(32), dc = ramp(32);
  for (int k = 0; k < 10; ++k) {
    a.should_fault(rt::FaultKind::BitFlipMessage, "s");
    b.should_fault(rt::FaultKind::BitFlipMessage, "s");
    c.should_fault(rt::FaultKind::BitFlipMessage, "s");
    EXPECT_EQ(a.flip_bit(da, rt::FaultKind::BitFlipMessage, "s"),
              b.flip_bit(db, rt::FaultKind::BitFlipMessage, "s"));
    c.flip_bit(dc, rt::FaultKind::BitFlipMessage, "s");
  }
  expect_bitwise_equal(da, db);
  EXPECT_NE(dc, da);  // different seed, different damage
}

TEST(SilentFaults, KindPredicates) {
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipDeviceArray));
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipMessage));
  EXPECT_TRUE(rt::fault_is_silent(rt::FaultKind::BitFlipReduction));
  EXPECT_FALSE(rt::fault_is_silent(rt::FaultKind::TransferCorruption));
  EXPECT_FALSE(rt::fault_is_permanent(rt::FaultKind::BitFlipMessage));
}

TEST(SilentFaults, TransmitSealsSidecarBeforeTheFlip) {
  rt::FaultInjector inj(7);
  rt::FaultPolicy p;
  p.every = 1;  // fire on every consultation
  inj.set_policy(rt::FaultKind::BitFlipMessage, p);

  rt::BspSimulator bsp(2);
  bsp.set_fault_injector(&inj);
  std::vector<double> payload = ramp(16);
  const std::vector<double> sent = payload;
  const rt::BlockChecksum sidecar = bsp.transmit(payload, "wire");
  EXPECT_EQ(bsp.silent_flips(), 1);
  EXPECT_NE(payload, sent);  // the wire flipped a bit...
  // ...but the sidecar describes the payload as sent, so the receiver catches
  // it, and a clean retransmission verifies.
  EXPECT_FALSE(rt::block_checksum(payload).matches(sidecar));
  EXPECT_TRUE(rt::block_checksum(sent).matches(sidecar));
}

// ---- MultiGpuSolver: device-array flips --------------------------------------

TEST(SdcMultiGpu, FlipDetectedLocalizedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(5);
  rt::FaultPolicy p;
  p.every = 3;  // a flip roughly every third device-step
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", p);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  opt.sdc.block_cells = 8;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipDeviceArray)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  // Every flip was healed in place: no repair failure, no checkpoint rollback.
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(multi.phases().audit, 0.0);
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

TEST(SdcMultiGpu, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(11);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 2;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "dev_I", flip);
  rt::FaultPolicy again;  // the repaired block is hit again -> escalate
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipDeviceArray, "repair", again);

  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);  // the localized path gave up; replay healed it
  EXPECT_GT(rs.replayed_steps, 0);
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

TEST(SdcMultiGpu, InjectionOffStaysBitIdenticalAndReportsAudit) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  MultiGpuSolver multi(s, phys(), 3);
  ResilienceOptions opt;  // no injector at all
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(nsteps);

  const ResilienceStats& rs = multi.resilience_stats();
  EXPECT_EQ(rs.sdc_detections, 0);
  EXPECT_EQ(rs.block_repairs, 0);
  EXPECT_GT(rs.sentinel_checks, 0);
  EXPECT_GT(rs.audit_seconds, 0.0);        // the defense's cost is visible...
  EXPECT_GT(multi.phases().audit, 0.0);    // ...in its own phase
  expect_bitwise_equal(multi.temperature(), serial.temperature());
  expect_bitwise_equal(multi.gather_intensity(), serial.intensity());
}

// ---- CellPartitionedSolver: halo-message flips -------------------------------

TEST(SdcCellPartitioned, HaloFlipDetectedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(21);
  rt::FaultPolicy p;
  p.every = 4;  // several flipped halo messages over the run
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo", p);

  CellPartitionedSolver part(s, phys(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  const ResilienceStats& rs = part.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipMessage)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(part.phases().audit, 0.0);
  EXPECT_GT(rs.recovery_seconds, 0.0);  // re-pulled messages are priced
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

TEST(SdcCellPartitioned, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(33);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 3;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo", flip);
  rt::FaultPolicy again;
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipMessage, "halo-repair", again);

  CellPartitionedSolver part(s, phys(), 4);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  const ResilienceStats& rs = part.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

TEST(SdcCellPartitioned, InjectionOffStaysBitIdentical) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  CellPartitionedSolver part(s, phys(), 3);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  part.enable_resilience(opt);
  part.run(nsteps);

  EXPECT_EQ(part.resilience_stats().sdc_detections, 0);
  EXPECT_GT(part.resilience_stats().sentinel_checks, 0);
  EXPECT_GT(part.phases().audit, 0.0);
  expect_bitwise_equal(part.gather_temperature(), serial.temperature());
  expect_bitwise_equal(part.gather_intensity(), serial.intensity());
}

// ---- BandPartitionedSolver: reduction flips ----------------------------------

TEST(SdcBandPartitioned, ReductionFlipDetectedRepairedBitExact) {
  const BteScenario s = scen();
  const int nsteps = 12;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(8);
  rt::FaultPolicy p;
  p.every = 3;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather", p);

  BandPartitionedSolver band(s, phys(), 3);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  opt.sdc.block_cells = 8;
  band.enable_resilience(opt);
  band.run(nsteps);

  const ResilienceStats& rs = band.resilience_stats();
  EXPECT_GT(inj.stats().injected[static_cast<int>(rt::FaultKind::BitFlipReduction)], 0);
  EXPECT_GT(rs.sdc_detections, 0);
  EXPECT_GT(rs.block_repairs, 0);
  EXPECT_EQ(rs.repair_failures, 0);
  EXPECT_EQ(rs.rollbacks, 0);
  EXPECT_EQ(rs.max_detection_latency_steps, 1);
  EXPECT_GT(band.phases().audit, 0.0);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

TEST(SdcBandPartitioned, RepairFailureFallsBackToRollback) {
  const BteScenario s = scen();
  const int nsteps = 10;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  rt::FaultInjector inj(17);
  rt::FaultPolicy flip;
  flip.every = 1;
  flip.first_event = 2;
  flip.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather", flip);
  rt::FaultPolicy again;
  again.every = 1;
  again.max_injections = 1;
  inj.set_site_policy(rt::FaultKind::BitFlipReduction, "gather-repair", again);

  BandPartitionedSolver band(s, phys(), 3);
  ResilienceOptions opt;
  opt.injector = &inj;
  opt.checkpoint.interval = 4;
  opt.sdc.enabled = true;
  band.enable_resilience(opt);
  band.run(nsteps);

  const ResilienceStats& rs = band.resilience_stats();
  EXPECT_EQ(rs.repair_failures, 1);
  EXPECT_GE(rs.rollbacks, 1);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

TEST(SdcBandPartitioned, InjectionOffStaysBitIdentical) {
  const BteScenario s = scen();
  const int nsteps = 8;
  DirectSolver serial(s, phys());
  serial.run(nsteps);

  BandPartitionedSolver band(s, phys(), 2);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  band.enable_resilience(opt);
  band.run(nsteps);

  EXPECT_EQ(band.resilience_stats().sdc_detections, 0);
  EXPECT_GT(band.resilience_stats().sentinel_checks, 0);
  EXPECT_GT(band.phases().audit, 0.0);
  expect_bitwise_equal(band.temperature(), serial.temperature());
  expect_bitwise_equal(band.gather_intensity(), serial.intensity());
}

// ---- invariants --------------------------------------------------------------

TEST(SdcInvariants, EnergyTripwireQuietOnHealthyRun) {
  const BteScenario s = scen();
  MultiGpuSolver multi(s, phys(), 2);
  ResilienceOptions opt;
  opt.sdc.enabled = true;
  multi.enable_resilience(opt);
  multi.run(10);
  // The explicit scheme's per-step energy change is far below the tolerance,
  // so a fault-free run records no violations.
  EXPECT_EQ(multi.resilience_stats().invariant_violations, 0);
}

TEST(SdcInvariants, SdcOffMatchesPlainGuardedRun) {
  // With sdc.enabled=false nothing about the guarded path changes: phases and
  // fields are bit-identical to a resilient run without the SDC knobs set.
  const BteScenario s = scen();
  MultiGpuSolver a(s, phys(), 2), b(s, phys(), 2);
  ResilienceOptions plain;
  a.enable_resilience(plain);
  ResilienceOptions off;
  off.sdc.enabled = false;
  b.enable_resilience(off);
  a.run(6);
  b.run(6);
  EXPECT_EQ(a.phases().communication, b.phases().communication);
  EXPECT_EQ(a.phases().audit, 0.0);
  EXPECT_EQ(b.phases().audit, 0.0);
  expect_bitwise_equal(a.temperature(), b.temperature());
}

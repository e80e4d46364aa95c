#include "chaos.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "hash.hpp"
#include "json_util.hpp"

namespace finch::rt {

namespace {

// 0 transient, 1 permanent, 2 silent, 3 performance, 4 resource.
constexpr int kNumFaultClasses = 5;
int fault_class(FaultKind k) {
  if (fault_is_permanent(k)) return 1;
  if (fault_is_silent(k)) return 2;
  if (fault_is_performance(k)) return 3;
  if (fault_is_resource(k)) return 4;
  return 0;
}

// Counter-mode splitmix stream: the generator's private dice.
class Dice {
 public:
  explicit Dice(uint64_t seed) : state_(seed) {}
  uint64_t next() { return splitmix64(state_ += 0x9e3779b97f4a7c15ULL); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int64_t below(int64_t n) { return n <= 1 ? 0 : static_cast<int64_t>(next() % static_cast<uint64_t>(n)); }

 private:
  uint64_t state_;
};

}  // namespace

int ChaosSchedule::num_classes() const {
  std::array<bool, kNumFaultClasses> seen{};
  for (const ChaosFault& f : faults) seen[static_cast<size_t>(fault_class(f.kind))] = true;
  int n = 0;
  for (bool b : seen) n += b ? 1 : 0;
  return n;
}

int64_t ChaosSchedule::total_fires() const {
  int64_t n = 0;
  for (const ChaosFault& f : faults) n += f.count;
  return n;
}

FaultKind fault_kind_from_name(std::string_view name) {
  for (int k = 0; k < kNumFaultKinds; ++k)
    if (name == fault_kind_name(static_cast<FaultKind>(k))) return static_cast<FaultKind>(k);
  throw std::invalid_argument("unknown fault kind name: '" + std::string(name) + "'");
}

// ---- replayable JSON artifact -----------------------------------------------

std::string schedule_to_json(const ChaosSchedule& s) {
  std::ostringstream os;
  os << "{\n"
     << "  \"seed\": " << s.seed << ",\n"
     << "  \"index\": " << s.index << ",\n"
     << "  \"solver\": \"" << s.solver << "\",\n"
     << "  \"nparts\": " << s.nparts << ",\n"
     << "  \"nsteps\": " << s.nsteps << ",\n"
     << "  \"faults\": [\n";
  for (size_t i = 0; i < s.faults.size(); ++i)
    os << "    " << fault_to_json(s.faults[i]) << (i + 1 < s.faults.size() ? "," : "") << "\n";
  os << "  ]\n}\n";
  return os.str();
}

std::string fault_error(const ChaosFault& f) {
  if (f.site.empty()) return "fault is missing a site";
  if (f.first_event < 0 || f.stride < 1 || f.count < 1) return "fault timing out of range";
  return "";
}

std::string fault_to_json(const ChaosFault& f) {
  std::ostringstream os;
  os << "{\"kind\": \"" << fault_kind_name(f.kind) << "\", \"site\": \"" << f.site
     << "\", \"first_event\": " << f.first_event << ", \"stride\": " << f.stride
     << ", \"count\": " << f.count << "}";
  return os.str();
}

ChaosFault fault_from_json(JsonCursor& c) {
  ChaosFault f;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "kind")
      f.kind = fault_kind_from_name(c.parse_string());
    else if (key == "site")
      f.site = c.parse_string();
    else if (key == "first_event")
      f.first_event = c.parse_int();
    else if (key == "stride")
      f.stride = c.parse_int();
    else if (key == "count")
      f.count = c.parse_int();
    else
      c.fail("unknown fault key '" + key + "'");
  }
  c.expect('}');
  if (const std::string err = fault_error(f); !err.empty()) c.fail(err);
  return f;
}

ChaosSchedule schedule_from_json(std::string_view json) {
  JsonCursor c{json, 0, "chaos schedule JSON"};
  ChaosSchedule out;
  c.expect('{');
  bool first = true;
  while (!c.peek('}')) {
    if (!first) c.expect(',');
    first = false;
    const std::string key = c.parse_string();
    c.expect(':');
    if (key == "seed")
      out.seed = c.parse_u64();
    else if (key == "index")
      out.index = c.parse_int();
    else if (key == "solver")
      out.solver = c.parse_string();
    else if (key == "nparts")
      out.nparts = static_cast<int>(c.parse_int());
    else if (key == "nsteps")
      out.nsteps = static_cast<int>(c.parse_int());
    else if (key == "faults") {
      c.expect('[');
      bool first_fault = true;
      while (!c.peek(']')) {
        if (!first_fault) c.expect(',');
        first_fault = false;
        out.faults.push_back(fault_from_json(c));
      }
      c.expect(']');
    } else {
      c.fail("unknown schedule key '" + key + "'");
    }
  }
  c.expect('}');
  c.skip_ws();
  if (c.i != json.size()) c.fail("trailing content after schedule");
  if (out.solver != "cell" && out.solver != "band" && out.solver != "mgpu")
    throw std::invalid_argument("chaos schedule JSON: unknown solver '" + out.solver + "'");
  if (out.nparts < 1 || out.nsteps < 1)
    throw std::invalid_argument("chaos schedule JSON: nparts/nsteps out of range");
  return out;
}

// ---- site menus -------------------------------------------------------------

const std::vector<ChaosMenuEntry>& ChaosEngine::site_menu(const std::string& solver) {
  // Consultation rates are rough per-step counts at 4 parts; the generator
  // only uses them to convert step windows into index windows, so a factor of
  // two either way just shifts where in the run a fault lands. "ckpt-restore"
  // is consulted only while a restore is in flight, so its indices are small
  // absolute positions, not step-derived.
  static const std::vector<ChaosMenuEntry> cell = {
      {FaultKind::DroppedMessage, "halo", 6.0},
      {FaultKind::DroppedMessage, "exchange", 6.0},
      {FaultKind::TransferCorruption, "halo", 6.0},
      {FaultKind::StuckRank, "exchange", 1.0},
      {FaultKind::BitFlipMessage, "halo", 6.0},
      {FaultKind::BitFlipMessage, "ckpt-restore", 0.0},
      {FaultKind::HangExchange, "exchange", 1.0},
      {FaultKind::HangExchange, "ckpt-restore", 0.0},
      {FaultKind::SlowRank, "compute", 2.0},
      {FaultKind::JitterKernel, "compute", 2.0},
      {FaultKind::RankFailure, "cell-rank", 1.0},
      {FaultKind::AllocFailure, "cell-mem", 1.0},
      {FaultKind::MemoryPressure, "cell-mem", 1.0},
  };
  static const std::vector<ChaosMenuEntry> band = {
      {FaultKind::DroppedMessage, "gather", 4.0},
      {FaultKind::TransferCorruption, "gather", 4.0},
      {FaultKind::BitFlipReduction, "gather", 4.0},
      {FaultKind::BitFlipMessage, "ckpt-restore", 0.0},
      {FaultKind::HangExchange, "exchange", 1.0},
      {FaultKind::HangExchange, "ckpt-restore", 0.0},
      {FaultKind::SlowRank, "compute", 2.0},
      {FaultKind::JitterKernel, "compute", 2.0},
      {FaultKind::RankFailure, "band-rank", 1.0},
      {FaultKind::AllocFailure, "band-mem", 1.0},
      {FaultKind::MemoryPressure, "band-mem", 1.0},
  };
  static const std::vector<ChaosMenuEntry> mgpu = {
      {FaultKind::KernelLaunchFailure, "bte_interior", 4.0},
      {FaultKind::TransferCorruption, "h2d", 8.0},
      {FaultKind::TransferCorruption, "d2h", 8.0},
      {FaultKind::BitFlipDeviceArray, "dev_I", 4.0},
      {FaultKind::BitFlipMessage, "ckpt-restore", 0.0},
      {FaultKind::HangExchange, "ckpt-restore", 0.0},
      {FaultKind::SlowRank, "launch", 4.0},
      {FaultKind::JitterKernel, "launch", 4.0},
      {FaultKind::DeviceLoss, "gpu", 1.0},
      {FaultKind::AllocFailure, "mgpu-mem", 1.0},
      {FaultKind::MemoryPressure, "mgpu-mem", 1.0},
  };
  if (solver == "cell") return cell;
  if (solver == "band") return band;
  if (solver == "mgpu") return mgpu;
  throw std::invalid_argument("ChaosEngine: unknown solver '" + solver + "'");
}

// ---- generation -------------------------------------------------------------

ChaosSchedule ChaosEngine::generate(const std::string& solver, const ChaosSpec& spec,
                                    int64_t index) const {
  if (spec.nparts < 2) throw std::invalid_argument("ChaosSpec: nparts must be >= 2");
  if (spec.nsteps < 2) throw std::invalid_argument("ChaosSpec: nsteps must be >= 2");
  if (spec.min_faults < 1 || spec.max_faults < spec.min_faults)
    throw std::invalid_argument("ChaosSpec: need 1 <= min_faults <= max_faults");
  const auto& menu = site_menu(solver);
  Dice dice(splitmix64(seed_ ^ fnv1a64(solver)) ^
            splitmix64(static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL));

  ChaosSchedule s;
  s.seed = seed_;
  s.index = index;
  s.solver = solver;
  s.nparts = spec.nparts;
  s.nsteps = spec.nsteps;

  // Survivor budget: every permanent fire (and every escalating hang) costs
  // one eviction, and the fleet must keep >= 2 parts so later evictions still
  // have survivors. The generator enforces survivability; proving the
  // recovery machinery delivers it is the oracle's job.
  int permanent_budget = spec.allow_permanent ? std::min(2, spec.nparts - 2) : 0;
  bool exchange_hang_used = false;  // one exchange-hang entry per schedule, see below

  std::array<std::vector<size_t>, kNumFaultClasses> by_class;
  for (size_t i = 0; i < menu.size(); ++i)
    by_class[static_cast<size_t>(fault_class(menu[i].kind))].push_back(i);

  // Co-occurrence epoch: the fraction of the run the clustered fires target.
  const double epoch = 0.1 + 0.5 * dice.unit();

  const auto place = [&](const ChaosMenuEntry& e) {
    ChaosFault f;
    f.kind = e.kind;
    f.site = e.site;
    if (e.consults_per_step <= 0.0) {
      // Restore-path site: consulted only while a restore is in flight, so
      // fires sit at small absolute indices (the first few read attempts).
      f.first_event = dice.below(2);
      f.stride = 1;
      f.count = 1 + dice.below(2);
    } else {
      const double window = e.consults_per_step * spec.nsteps;
      const double at = spec.co_occur ? window * (epoch + 0.15 * dice.unit())
                                      : window * 0.8 * dice.unit();
      f.first_event = std::max<int64_t>(0, static_cast<int64_t>(std::llround(
                                               std::min(at, window * 0.85))));
      f.stride = 1 + dice.below(3);
      const int64_t base = 1 + dice.below(3);
      f.count = std::max<int64_t>(1, static_cast<int64_t>(std::llround(
                                         static_cast<double>(base) * spec.density)));
    }
    if (fault_is_permanent(f.kind)) {
      f.count = 1;  // each fire is an eviction; the budget is counted in fires
      f.first_event = dice.below(std::max(2, spec.nsteps * 4 / 5));
    }
    return f;
  };

  const auto admissible = [&](const ChaosMenuEntry& e) {
    if (fault_is_permanent(e.kind) && permanent_budget <= 0) return false;
    // One exchange-hang entry per schedule: its escalation companion fires on
    // fixed "exchange-retry" indices, which stay deterministic only if no
    // other hang episode consumes retry consultations first.
    if (e.kind == FaultKind::HangExchange && std::string_view(e.site) == "exchange" &&
        exchange_hang_used)
      return false;
    return true;
  };

  const auto add_entry = [&](const ChaosMenuEntry& e) {
    ChaosFault f = place(e);
    if (fault_is_permanent(f.kind)) permanent_budget -= 1;
    if (e.kind == FaultKind::HangExchange && std::string_view(e.site) == "exchange") {
      exchange_hang_used = true;
      f.count = 1;
      // A third of exchange hangs persist past the watchdog's Suspect-level
      // retries and escalate to a Dead verdict — an eviction, so it draws on
      // the permanent budget. The companion fires on the first two
      // "exchange-retry" consultations (misses 2 and 3 under the default
      // heartbeat), which is exactly the escalation path.
      if (permanent_budget > 0 && dice.below(3) == 0) {
        permanent_budget -= 1;
        s.faults.push_back(f);
        ChaosFault retry;
        retry.kind = FaultKind::HangExchange;
        retry.site = "exchange-retry";
        retry.first_event = 0;
        retry.stride = 1;
        retry.count = 2;
        s.faults.push_back(retry);
        return;
      }
    }
    s.faults.push_back(f);
  };

  // First pass: one fault from each of min_classes distinct (admissible)
  // classes, drawn in a seeded shuffle order so campaigns cover every mix.
  std::vector<int> classes;
  for (int c : {0, 2, 3, 4, 1})
    if (!by_class[static_cast<size_t>(c)].empty() && (c != 1 || permanent_budget > 0))
      classes.push_back(c);
  for (size_t i = classes.size(); i > 1; --i)
    std::swap(classes[i - 1], classes[static_cast<size_t>(dice.below(static_cast<int64_t>(i)))]);
  if (static_cast<int>(classes.size()) > spec.min_classes)
    classes.resize(static_cast<size_t>(spec.min_classes));
  for (int c : classes) {
    const auto& pool = by_class[static_cast<size_t>(c)];
    for (int tries = 0; tries < 8; ++tries) {
      const auto& e = menu[pool[static_cast<size_t>(dice.below(static_cast<int64_t>(pool.size())))]];
      if (!admissible(e)) continue;
      add_entry(e);
      break;
    }
  }

  // Second pass: fill to the drawn fault count from the whole menu.
  const int64_t nfaults =
      std::max<int64_t>(static_cast<int64_t>(s.faults.size()),
                        spec.min_faults + dice.below(spec.max_faults - spec.min_faults + 1));
  int guard = 0;
  while (static_cast<int64_t>(s.faults.size()) < nfaults && guard++ < 64) {
    const auto& e = menu[static_cast<size_t>(dice.below(static_cast<int64_t>(menu.size())))];
    if (!admissible(e)) continue;
    add_entry(e);
  }
  return s;
}

void ChaosEngine::arm(FaultInjector& injector, const ChaosSchedule& sched) {
  for (const ChaosFault& f : sched.faults)
    for (int64_t k = 0; k < f.count; ++k)
      injector.schedule_fault(f.kind, f.site, f.first_event + k * f.stride);
}

}  // namespace finch::rt

#pragma once
// Job-service robustness policies (svc::Scheduler): retry/backoff,
// quarantine, admission.
//
// Policies are plain data validated at construction time (same contract as
// bte::validate_resilience_options): a contradictory combination is a
// programming error surfaced immediately, not a latent runtime surprise.
// Precedence when several policies could claim a job in the same pass:
//
//   cancel > quarantine > retry > shed
//
// A drained (cancelled) job is never counted as a failure; a quarantined job
// is never retried again; a job is only shed before its first allocation.
//
// Backoff is deterministic: jitter is drawn from an FNV-1a hash of
// (job id, failure index), not from a global RNG, so a re-run of the same
// job stream charges bit-identical virtual backoff — the property the
// supervisor-campaign oracle and the CI soak rely on. (The scheduler's
// retry-storm damper may stretch it, deterministically too.)

#include <cstdint>
#include <stdexcept>
#include <string>

#include "bte/chaos_campaign.hpp"
#include "runtime/memory.hpp"

namespace finch::svc {

struct RetryPolicy {
  int max_retries = 3;          // retries after the first attempt
  double backoff_base_s = 0.5;  // virtual seconds before retry k: base * 2^k
  double backoff_max_s = 8.0;   // cap applied before jitter
  double jitter_frac = 0.25;    // uniform [0, jitter_frac) multiplicative
};

struct QuarantinePolicy {
  int threshold = 3;           // consecutive failed attempts (distinct seeds)
  bool minimize_repro = true;  // ddmin-shrink the chaos schedule on trip
  int max_shrink_runs = 64;    // budget for shrink re-executions
};

struct SupervisorOptions {
  // Root for per-job durable state (<root>/<job id>/...). Empty = in-memory
  // only: no generation files, retries restart from step 0, no crash
  // adoption.
  std::string durable_root;
  RetryPolicy retry;
  QuarantinePolicy quarantine;
  // Shared budget for admission control; nullptr = admit everything.
  rt::MemoryBudget* memory = nullptr;
  // Defense stack armed on every attempt (checkpoint interval, rollback
  // budget, SDC auditors, ... — per-job spec overrides still apply).
  bte::ChaosDefense defense;
};

inline void validate_supervisor_options(const SupervisorOptions& o) {
  if (o.retry.max_retries < 0)
    throw std::invalid_argument("SupervisorOptions: retry.max_retries must be >= 0");
  if (o.retry.backoff_base_s < 0.0 || o.retry.backoff_max_s < 0.0)
    throw std::invalid_argument("SupervisorOptions: backoff seconds must be >= 0");
  if (o.retry.backoff_max_s < o.retry.backoff_base_s)
    throw std::invalid_argument("SupervisorOptions: backoff_max_s must be >= backoff_base_s");
  if (o.retry.jitter_frac < 0.0 || o.retry.jitter_frac >= 1.0)
    throw std::invalid_argument("SupervisorOptions: jitter_frac must be in [0, 1)");
  if (o.quarantine.threshold < 1)
    throw std::invalid_argument("SupervisorOptions: quarantine.threshold must be >= 1");
  if (o.quarantine.max_shrink_runs < 0)
    throw std::invalid_argument("SupervisorOptions: quarantine.max_shrink_runs must be >= 0");
}

// Deterministic exponential backoff with bounded multiplicative jitter:
//   min(base * 2^k, cap) * (1 + jitter_frac * u),  u = hash(job_id, k) in [0,1)
// so the uncapped-then-jittered value never exceeds cap * (1 + jitter_frac).
inline double backoff_with_jitter(const RetryPolicy& p, const std::string& job_id,
                                  int failure_index) {
  double d = p.backoff_base_s;
  for (int k = 0; k < failure_index && d < p.backoff_max_s; ++k) d *= 2.0;
  if (d > p.backoff_max_s) d = p.backoff_max_s;
  uint64_t h = 1469598103934665603ull;  // FNV-1a over (job_id, failure_index)
  for (char c : job_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<uint64_t>(failure_index);
  h *= 1099511628211ull;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return d * (1.0 + p.jitter_frac * u);
}

}  // namespace finch::svc

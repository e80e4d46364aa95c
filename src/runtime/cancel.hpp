#pragma once
// Cooperative cancellation for durable runs.
//
// A CancelToken is the operator's (or a future scheduler's) handle on a
// running job: request() flags it, and deadlines bound it by completed steps
// or by virtual simulated seconds. The solvers consult should_drain() at
// every step boundary — the one place where the state is consistent and a
// checkpoint is cheap — and on a hit they *drain* instead of aborting: commit
// a final checkpoint generation at the current step whose run manifest
// carries the reason, and return. A drained job is indistinguishable from a crashed-and-not-yet-
// resumed one to resume_from(), which is the point: cancel, deadline, OOM
// kill and SIGKILL all converge on the same durable restart path.
//
// request() is an atomic flag so a watchdog thread may set it while the
// solver steps; deadlines are plain configuration set before the run.

#include <atomic>
#include <cstdint>
#include <string>

namespace finch::rt {

class CancelToken {
 public:
  // Flags the token; the solver drains at its next step boundary.
  void request(std::string reason = "cancelled") {
    reason_ = std::move(reason);
    requested_.store(true, std::memory_order_release);
  }
  bool requested() const { return requested_.load(std::memory_order_acquire); }

  // Drain once `steps` steps have completed (<= 0: no step deadline).
  void set_step_deadline(int64_t steps) { step_deadline_ = steps; }
  // Drain once the virtual clock passes `seconds` (<= 0: no time deadline).
  void set_virtual_deadline(double seconds) { virtual_deadline_s_ = seconds; }

  bool should_drain(int64_t steps_completed, double virtual_seconds) const {
    if (requested()) return true;
    if (step_deadline_ > 0 && steps_completed >= step_deadline_) return true;
    if (virtual_deadline_s_ > 0.0 && virtual_seconds >= virtual_deadline_s_) return true;
    return false;
  }

  // The reason recorded in the final generation's manifest.
  std::string drain_reason(int64_t steps_completed, double virtual_seconds) const {
    if (requested()) return reason_.empty() ? "cancelled" : reason_;
    if (step_deadline_ > 0 && steps_completed >= step_deadline_) return "deadline: steps";
    if (virtual_deadline_s_ > 0.0 && virtual_seconds >= virtual_deadline_s_)
      return "deadline: virtual-time";
    return "";
  }

 private:
  std::atomic<bool> requested_{false};
  std::string reason_;
  int64_t step_deadline_ = 0;
  double virtual_deadline_s_ = 0.0;
};

}  // namespace finch::rt

// Deterministic fault injection for the distributed service path.
//
// Failure handling is first-class tested code here, so the failures
// themselves must be first-class reproducible.  A FaultInjector is
// configured from a compact spec string (CLI `--fault-inject` or the
// DVS_FAULT_INJECT environment variable) naming *points* in the code
// and the *action* to take there with some probability:
//
//     point=action[@probability]
//
// joined by commas, plus two settings entries:
//
//     seed=N        deterministic decision seed (default 1)
//     stall_ms=N    how long a `stall` action sleeps (default 60000)
//
// Actions: `drop-connection`, `stall`, `corrupt-reply`,
// `die-after-accept`.  Probability defaults to 1.  The decision for
// the i-th arrival at a point is a pure function of
// (seed, fnv1a(point), i), so a fixed seed replays the exact same
// fault schedule across runs regardless of thread interleaving.
//
// Instrumented points (worker side):
//   register     evaluated after the scheduler acknowledges
//                registration (`die-after-accept` drops the channel)
//   job-accept   evaluated when a leased job arrives
//                (`drop-connection` / `die-after-accept` close the
//                channel before executing)
//   job-reply    evaluated before sending a result (`stall` sleeps
//                stall_ms holding the lease, `corrupt-reply` flips a
//                byte of the body so the checksum mismatches,
//                `drop-connection` closes instead of replying)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace dvs {

class FaultInjector {
 public:
  enum class Action {
    kNone,
    kDropConnection,
    kStall,
    kCorruptReply,
    kDieAfterAccept,
  };

  /// Disabled injector: at() always returns kNone.
  FaultInjector() = default;

  /// Parses a spec string; throws std::runtime_error with the exact
  /// grammar on any malformed entry.  An empty spec yields a disabled
  /// injector.  Copies share the underlying arrival counters.
  static FaultInjector parse(const std::string& spec);

  /// parse(getenv("DVS_FAULT_INJECT")) — disabled when unset.
  static FaultInjector from_env();

  bool enabled() const { return state_ != nullptr; }

  /// Decision for this arrival at `point`; increments the point's
  /// arrival counter.  kNone when disabled or no rule fires.
  Action at(const std::string& point);

  int stall_ms() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace dvs

// The routed update plane (DESIGN.md 4j): first-class publish/retract as
// protocol frames, delivered through the runtime in every mode.
//
// A moving object is a retract-then-publish pair per move; an update-heavy
// workload is a stream of such ops issued from arbitrary peers. This plane
// turns each op into a PublishRequest/RetractRequest frame
// (core/messages.hpp, wire round-trip in serialize.cpp), routes it from its
// origin to the key's owner through the Chord ring, judges every message
// leg at the uniform fault choke point (sim::Engine::admit — same retry +
// exponential-backoff discipline as query legs), and plans it in the
// caller's chosen DeliveryMode:
//
//   * kLockstep, kVirtualTime — ops are planned one after another on the
//                    caller's thread.
//   * kParallel    — ops are planned on UpdateOptions::shards threads, each
//                    taking one contiguous chunk of the submit order.
//
// Determinism contract (the store differential lock rests on all three):
//   1. Fault verdicts are a pure function of (plan, submit index): every
//      op's legs are judged by an injector forked from the base plan by its
//      seq (sim::fork_plan), at virtual time 0, in every mode.
//   2. Delivered frames COMMIT to the store after planning, on the caller's
//      thread, in global submit order — never mid-flight, so planning
//      threads can neither race the store nor reorder writes.
//   3. Therefore every per-op result (completion tick included) and the
//      final store state — and every query result computed from it — are
//      bit-identical across modes, shard counts, and thread interleavings,
//      and the store equals applying the delivered subset directly.
//
// Commits go through SquidSystem::publish/unpublish, so hot-cluster replica
// invalidation is synchronous (a retract can never leave a stale replica
// serving — docs/LOAD_BALANCING.md) and telemetry/metrics fire at the
// owner (squid.system.publishes / unpublishes / retracts, epoch-sampler
// kPublish / kRetract load).

#pragma once

#include <cstdint>
#include <vector>

#include "squid/core/runtime.hpp"
#include "squid/core/types.hpp"
#include "squid/overlay/id_space.hpp"
#include "squid/sim/engine.hpp"

namespace squid::sim {
struct FaultPlan; // sim/fault.hpp
}

namespace squid::core {

class SquidSystem;

/// One routed index mutation, issued from `origin`.
struct UpdateOp {
  enum class Kind { kPublish, kRetract };
  Kind kind = Kind::kPublish;
  DataElement element;
  overlay::NodeId origin = 0;

  static UpdateOp publish(DataElement element, overlay::NodeId origin) {
    return {Kind::kPublish, std::move(element), origin};
  }
  static UpdateOp retract(DataElement element, overlay::NodeId origin) {
    return {Kind::kRetract, std::move(element), origin};
  }
};

/// Per-op outcome. `delivered` is the wire verdict (route found AND the
/// frame survived its fault legs); `applied` is the store verdict (a
/// delivered retract of an element the owner no longer holds is delivered
/// but not applied).
struct UpdateResult {
  bool delivered = false;
  bool applied = false;
  std::size_t hops = 0;     ///< overlay route length origin -> owner
  std::size_t messages = 0; ///< frames paid for (1 + resends + duplicates)
  std::size_t retries = 0;  ///< resends after presumed losses
  std::size_t bytes = 0;    ///< exact serialized frame size, per message
  /// Arrival tick at the owner: route hops plus fault delay, counted from
  /// 0. A lost frame never arrives, so it stays 0.
  sim::Time completed_at = 0;
};

/// Whole-run accounting: per-op results in submit order plus the sums the
/// benches chart.
struct UpdateRun {
  std::vector<UpdateResult> results;
  std::size_t delivered = 0;
  std::size_t applied = 0;
  std::size_t lost = 0; ///< unroutable or dropped after all retries
  std::size_t messages = 0;
  std::size_t retries = 0;
  std::size_t bytes = 0;
  sim::Time makespan = 0; ///< latest completed_at over the run
};

struct UpdateOptions {
  DeliveryMode mode = DeliveryMode::kLockstep;
  /// Planning threads for kParallel (>= 1); ignored otherwise.
  unsigned shards = 1;
  /// Base fault plan; each op's legs are judged by stream fork_plan(plan,
  /// submit index). Null = no faults, no randomness. Not owned.
  const sim::FaultPlan* faults = nullptr;
};

/// Apply `ops` to the system through the update plane. See the determinism
/// contract above; `opts.mode` only changes how many threads plan, never a
/// result or the final store state.
UpdateRun apply_updates(SquidSystem& sys, const std::vector<UpdateOp>& ops,
                        const UpdateOptions& opts = {});

/// Lockstep single-op conveniences.
UpdateResult publish_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin);
UpdateResult retract_update(SquidSystem& sys, const DataElement& element,
                            overlay::NodeId origin);

} // namespace squid::core

// Batch query API for multi-core hosts (DESIGN.md 4f).
//
// SquidSystem::query_parallel resolves a batch of independent queries on a
// pool of `ParallelOptions::shards` worker threads, the caller included.
// Each worker takes the next spec index from a shared counter and resolves
// it as one lockstep query on a private engine — exactly what query() does —
// so every per-query answer is bit-equal to the sequential path by
// construction (tests/core/parallel_differential_test.cpp locks it).
//
//   * Faults: query k runs under an injector built from
//     fork_plan(*faults, k), so its verdict stream depends only on (plan, k),
//     never on which worker ran it or when.
//   * Owner cache: with cache_cluster_owners on, consecutive queries couple
//     through the cache, so the pool runs one worker in submit order — the
//     sequential semantics exactly.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "squid/core/aggregate.hpp"
#include "squid/core/types.hpp"
#include "squid/keyword/space.hpp"
#include "squid/sim/fault.hpp"

namespace squid::core {

/// One query of a parallel batch.
struct ParallelQuerySpec {
  keyword::Query query;
  overlay::NodeId origin = 0;
  /// When set, the query runs as an aggregation pushdown (DESIGN.md 4g).
  std::optional<AggregateSpec> aggregate;
};

struct ParallelOptions {
  /// Worker threads, the caller included (>= 1).
  unsigned shards = 2;
  /// When set, query k runs under an injector built from
  /// fork_plan(*faults, k). Not owned.
  const sim::FaultPlan* faults = nullptr;
};

/// Per-query injector tallies, reported so harnesses can compare the
/// parallel fault streams draw-for-draw against a sequential replay.
struct ParallelFaultTallies {
  std::uint64_t rng_draws = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
};

struct ParallelRun {
  std::vector<QueryResult> results; ///< one per spec, in submit order
  std::vector<ParallelFaultTallies> faults; ///< empty without a fault plan
};

} // namespace squid::core

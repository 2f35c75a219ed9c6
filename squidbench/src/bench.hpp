// Shared declarations of the Squid benchmark binary.
//
// A workload builds one Squid system from a seed and drives it through a
// fixed operation sequence derived from that seed (never a time-bounded
// loop), so every count the run reports repeats exactly for one seed. Each
// public call is timed on its own; answer checking, digests and the traced
// run's layer replays all happen outside the timed calls, in hooks.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "squid/core/parallel.hpp"
#include "squid/core/system.hpp"
#include "squid/core/update.hpp"

namespace squidbench {

using namespace squid;
using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Order-independent digest of a name multiset (the oracle comparison):
/// equal multisets give equal digests; a differing one collides with
/// probability ~2^-64.
class NameDigest {
public:
  void add(std::string_view name);
  void add_hash(std::uint64_t hash); ///< hash from name_hash()
  std::uint64_t value() const;

private:
  std::uint64_t sum_ = 0, count_ = 0;
};
std::uint64_t name_hash(std::string_view name);
std::uint64_t name_digest(const std::vector<std::string>& names);
std::uint64_t element_digest(const std::vector<core::DataElement>& elements);
/// Order-dependent mixing of 64-bit words (stream and step digests).
std::uint64_t mix(std::uint64_t acc, std::uint64_t value);
std::uint64_t stats_digest(const core::QueryStats& stats);

/// Called after each timed public call, outside the timed region. The
/// traced run implements these to replay the call's layer work.
class Hooks {
public:
  virtual ~Hooks() = default;
  virtual void after_updates(core::SquidSystem& sys,
                             const std::vector<core::UpdateOp>& ops,
                             const core::UpdateRun& run,
                             Clock::time_point start, double wall_ns) = 0;
  virtual void after_query(core::SquidSystem& sys, const keyword::Query& query,
                           overlay::NodeId origin,
                           const core::QueryResult& result,
                           Clock::time_point start, double wall_ns) = 0;
  virtual void after_query_batch(core::SquidSystem& sys,
                                 const std::vector<core::ParallelQuerySpec>& specs,
                                 const core::ParallelRun& run,
                                 Clock::time_point start, double wall_ns) = 0;
};

/// Everything one pass over a workload's op sequence measured.
struct Log {
  // Reads. One latency sample per public read call (query(), or one
  // query_parallel batch on geo_parallel).
  std::vector<double> latency_ns;
  double query_ns = 0;
  std::uint64_t queries = 0;
  std::vector<std::uint64_t> hops; ///< critical_path_hops per query
  std::uint64_t messages = 0, bytes = 0, reply_messages = 0;
  std::uint64_t routing_nodes = 0, processing_nodes = 0, data_nodes = 0;
  // Writes (apply_updates).
  double update_ns = 0;
  std::uint64_t updates = 0, update_messages = 0, update_bytes = 0,
                update_hops = 0;
  std::uint64_t merges = 0, merged_keys = 0; ///< store_stats() deltas
  // Sharded runtime counters (registry deltas around query_parallel).
  std::uint64_t handoffs = 0, idle_polls = 0;
  // Correctness.
  std::uint64_t attempted = 0, failed = 0;
  /// One digest per step (an update batch, a query or a query batch):
  /// answers plus every count, for the same-seed determinism checks.
  std::vector<std::uint64_t> steps;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Build the system from the seed: corpus generation, publish_batch,
  /// network growth, balancing and routing repair. Timed by the caller.
  virtual void setup(std::uint64_t seed) = 0;
  /// Run the op sequence (the first `step_limit` steps of it), appending to
  /// `log`; `hooks` may be null.
  virtual void run(Log& log, Hooks* hooks, std::size_t step_limit) = 0;
  /// Steps the determinism probe replays on an independent build.
  virtual std::size_t probe_steps() const = 0;
  /// Digest of the first inputs the op generator derives from `seed`,
  /// without building a system: proves the seed argument reaches the ops.
  virtual std::uint64_t stream_digest(std::uint64_t seed) const = 0;
  /// Digest of the built system (ring membership and store contents).
  std::uint64_t fingerprint() const;
  virtual unsigned shards() const { return 1; }
  /// Builds per run for the setup_s median (more where a build is short).
  virtual int setup_reps() const = 0;
  virtual std::string describe() const = 0;
  core::SquidSystem& sys() { return *sys_; }

protected:
  std::unique_ptr<core::SquidSystem> sys_;
};

/// `name` is one of flex_paper, flex_dense, geo_mixed, geo_parallel;
/// `seconds` scales the fixed op counts. Returns null for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned seconds);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The traced run: per-layer metrics plus a human summary on stdout. Spans
/// are written to `trace_path` at the end. Sets `correct` false when the
/// traced pass changed an answer or a QueryStats field.
std::vector<Metric> traced_run(const std::string& workload, unsigned seconds,
                               std::uint64_t seed, const std::string& trace_path,
                               Log& log, bool& correct);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

} // namespace squidbench

// Run-length finger tables (DESIGN.md 4b): routing over the distinct
// fingers, with the liveness probe tested last, must pick exactly the hop the
// per-index scan picks. The reference below is that scan — contains() first,
// over every logical entry read through ChordRing::finger — replayed beside
// route() on converged, failed, freshly joined and timeout-repaired rings,
// together with the structural invariants of the run table and a
// per-index model of every single-entry write.

#include "squid/overlay/chord.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "squid/util/rng.hpp"

namespace squid::overlay {
namespace {

/// Per-index closest-preceding-finger: liveness first, every logical entry.
NodeId reference_closest(const ChordRing& ring, const ChordNode& n,
                         u128 key) {
  NodeId best = n.id;
  u128 best_progress = 0;
  for (std::size_t k = ring.finger_count(); k-- > 0;) {
    const NodeId f = ring.finger(n, k);
    if (!ring.contains(f) || !in_open_open(n.id, key, f)) continue;
    const u128 progress = ring_distance(n.id, f, ring.id_bits());
    if (progress > best_progress) {
      best = f;
      best_progress = progress;
    }
  }
  return best;
}

/// ChordRing::route's loop, with reference_closest as the finger choice.
RouteResult reference_route(const ChordRing& ring, NodeId from, u128 key) {
  RouteResult r;
  NodeId cur = from;
  r.path.push_back(cur);
  for (std::size_t hop = 0; hop < ring.max_route_hops(); ++hop) {
    const ChordNode& n = ring.node(cur);
    std::optional<NodeId> succ;
    for (const NodeId s : n.successors) {
      if (ring.contains(s)) {
        succ = s;
        break;
      }
    }
    if (!succ) return r;
    if (in_open_closed(cur, *succ, key)) {
      r.ok = true;
      r.dest = *succ;
      if (*succ != cur) r.path.push_back(*succ);
      return r;
    }
    NodeId next = reference_closest(ring, n, key);
    if (next == cur) next = *succ;
    if (next == cur) return r;
    r.path.push_back(next);
    cur = next;
  }
  return r;
}

u128 draw_key(const ChordRing& ring, Rng& rng) {
  return ring.id_bits() >= 128 ? rng.next128()
                               : rng.below128(ring.id_mask() + 1);
}

/// route() and the reference agree on ok, dest and the full path.
void expect_routes_match(const ChordRing& ring, Rng& rng, int trials = 150) {
  for (int trial = 0; trial < trials; ++trial) {
    const NodeId from = ring.random_node(rng);
    const u128 key = draw_key(ring, rng);
    const RouteResult got = ring.route(from, key);
    const RouteResult want = reference_route(ring, from, key);
    ASSERT_EQ(got.ok, want.ok);
    ASSERT_EQ(got.dest, want.dest);
    ASSERT_EQ(got.path, want.path);
  }
}

/// The logical table of `n`, one entry per finger index.
std::vector<NodeId> fingers_of(const ChordRing& ring, const ChordNode& n) {
  std::vector<NodeId> table;
  for (std::size_t k = 0; k < ring.finger_count(); ++k)
    table.push_back(ring.finger(n, k));
  return table;
}

/// Starts rise strictly from 0 inside [0, finger_count()), adjacent runs
/// hold different ids.
void expect_runs_well_formed(const ChordRing& ring) {
  for (const NodeId id : ring.node_ids()) {
    const std::vector<FingerRun>& runs = ring.node(id).finger_runs;
    ASSERT_FALSE(runs.empty());
    EXPECT_EQ(runs.front().first, 0u);
    EXPECT_LT(runs.back().first, ring.finger_count());
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_LT(runs[i - 1].first, runs[i].first);
      EXPECT_NE(runs[i - 1].id, runs[i].id);
    }
  }
}

/// Every logical entry is the ground-truth successor of its target.
void expect_fingers_exact(const ChordRing& ring) {
  for (const NodeId id : ring.node_ids()) {
    const ChordNode& n = ring.node(id);
    for (std::size_t k = 0; k < ring.finger_count(); ++k)
      ASSERT_EQ(ring.finger(n, k),
                ring.successor_of(ring.finger_target_of(id, k)));
  }
}

/// (finger_base, id_bits)
class FingerRuns
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {
protected:
  unsigned base() const { return std::get<0>(GetParam()); }
  unsigned bits() const { return std::get<1>(GetParam()); }
  /// 8-bit rings hold at most 256 ids: keep them sparse enough to route.
  std::size_t nodes() const { return bits() <= 8 ? 60 : 240; }
  ChordRing make_ring(Rng& rng) const {
    ChordRing ring(bits(), /*successors=*/4, base());
    ring.build(nodes(), rng);
    return ring;
  }
};

TEST_P(FingerRuns, ConvergedRingRoutesMatchAndTablesAreExact) {
  Rng rng(101 + base() * 7 + bits());
  const ChordRing ring = make_ring(rng);
  expect_runs_well_formed(ring);
  expect_fingers_exact(ring);
  expect_routes_match(ring, rng);
}

TEST_P(FingerRuns, DeadAndStaleFingersRouteIdentically) {
  Rng rng(202 + base() * 7 + bits());
  ChordRing ring = make_ring(rng);
  // Fail 10%, then 30% in total, with no stabilization in between: finger
  // tables keep pointing at vanished peers and routing must skip them the
  // same way in both scans.
  for (const double share : {0.1, 0.3}) {
    const auto target = static_cast<std::size_t>(
        static_cast<double>(nodes()) * (1.0 - share));
    while (ring.size() > target) ring.fail(ring.random_node(rng));
    expect_runs_well_formed(ring);
    expect_routes_match(ring, rng);
  }
  ring.repair_all();
  expect_runs_well_formed(ring);
  expect_fingers_exact(ring);
  expect_routes_match(ring, rng);
}

TEST_P(FingerRuns, ProtocolJoinsAndPartialStabilizationRouteIdentically) {
  Rng rng(303 + base() * 7 + bits());
  ChordRing ring = make_ring(rng);
  // Joined nodes copy their successor's runs and overwrite entry 0; the
  // ring is then only partly stabilized, so tables mix bootstrap guesses,
  // single-entry fixes from stabilize, and exact wiring.
  for (int wave = 0; wave < 3; ++wave) {
    for (int j = 0; j < 8; ++j) {
      const NodeId id = ring.random_free_id(rng);
      (void)ring.join(id, ring.random_node(rng));
      expect_runs_well_formed(ring);
    }
    expect_routes_match(ring, rng);
    for (const NodeId id : ring.node_ids())
      if (rng.below(2) == 0) ring.stabilize(id, rng);
    expect_runs_well_formed(ring);
    expect_routes_match(ring, rng);
  }
  ring.stabilize_all(rng, 1);
  expect_runs_well_formed(ring);
  expect_routes_match(ring, rng);
  ring.repair_all();
  expect_fingers_exact(ring);
}

TEST_P(FingerRuns, TimeoutRepointsRouteIdentically) {
  Rng rng(404 + base() * 7 + bits());
  ChordRing ring = make_ring(rng);
  std::vector<NodeId> dead;
  while (ring.size() > nodes() * 4 / 5) {
    dead.push_back(ring.random_node(rng));
    ring.fail(dead.back());
  }
  // Live nodes time out against most dead peers their finger tables still
  // name: exactly those entries move to the first live successor.
  for (const NodeId observer : ring.node_ids()) {
    const ChordNode& n = ring.node(observer);
    for (const NodeId d : dead) {
      bool named = false;
      for (const FingerRun& run : n.finger_runs) named |= run.id == d;
      if (!named || rng.below(4) == 0) continue; // leave some stale
      const std::vector<NodeId> before = fingers_of(ring, n);
      ring.note_timeout(observer, d);
      NodeId fallback = observer;
      for (const NodeId s : n.successors) {
        if (ring.contains(s)) {
          fallback = s;
          break;
        }
      }
      const std::vector<NodeId> after = fingers_of(ring, n);
      for (std::size_t k = 0; k < before.size(); ++k)
        ASSERT_EQ(after[k], before[k] == d ? fallback : before[k]);
    }
  }
  expect_runs_well_formed(ring);
  expect_routes_match(ring, rng);
  ring.repair_all();
  expect_runs_well_formed(ring);
  expect_fingers_exact(ring);
}

TEST_P(FingerRuns, SetFingerMatchesAPerIndexModel) {
  Rng rng(505 + base() * 7 + bits());
  ChordRing ring = make_ring(rng);
  const std::vector<NodeId> ids = ring.node_ids();
  ChordNode& n = ring.node(ids.front());
  std::vector<NodeId> model = fingers_of(ring, n);
  // A small palette makes writes land next to equal neighbors often, so
  // splits at both run edges, mid-run splits and coalescing all occur.
  const std::vector<NodeId> palette = {ids[0], ids[1], ids[2], model.back()};
  for (int step = 0; step < 400; ++step) {
    const auto k = static_cast<std::size_t>(rng.below(model.size()));
    const NodeId id = palette[rng.below(palette.size())];
    ring.set_finger(n, k, id);
    model[k] = id;
    ASSERT_EQ(fingers_of(ring, n), model) << "step " << step;
    expect_runs_well_formed(ring);
  }
  EXPECT_THROW((void)ring.finger(n, model.size()), std::invalid_argument);
  EXPECT_THROW(ring.set_finger(n, model.size(), ids[0]),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FingerRuns,
    ::testing::Combine(::testing::Values(2u, 4u, 16u),
                       ::testing::Values(8u, 48u, 128u)),
    [](const auto& info) {
      return "base" + std::to_string(std::get<0>(info.param)) + "_bits" +
             std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace squid::overlay

#include "squid/overlay/chord.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "squid/obs/metrics.hpp"
#include "squid/util/require.hpp"

namespace squid::overlay {

namespace {

/// Registry handles for the ring's maintenance metrics, resolved once.
/// Counters are relaxed atomics, so the const routing path stays safe under
/// the concurrent readers of parallel_query_test.
struct RingMetrics {
  obs::Counter& routes;
  obs::Counter& route_hops;
  obs::Counter& route_failures;
  obs::Counter& stabilize_ops;
  obs::Counter& successor_fallbacks;
  obs::Counter& finger_fixes;
  obs::Counter& timeout_repairs;
  obs::Counter& compactions;
  obs::Counter& tombstones_dropped;
  obs::Counter& joins;
  obs::Counter& leaves;
  obs::Counter& fails;

  static RingMetrics& get() {
    auto& r = obs::Registry::global();
    static RingMetrics m{r.counter("squid.ring.routes"),
                         r.counter("squid.ring.route_hops"),
                         r.counter("squid.ring.route_failures"),
                         r.counter("squid.ring.stabilize_ops"),
                         r.counter("squid.ring.successor_fallbacks"),
                         r.counter("squid.ring.finger_fixes"),
                         r.counter("squid.ring.timeout_repairs"),
                         r.counter("squid.ring.compactions"),
                         r.counter("squid.ring.tombstones_dropped"),
                         r.counter("squid.ring.joins"),
                         r.counter("squid.ring.leaves"),
                         r.counter("squid.ring.fails")};
    return m;
  }
};

} // namespace

ChordRing::ChordRing(unsigned id_bits, unsigned successors,
                     unsigned finger_base)
    : id_bits_(id_bits), successor_list_len_(successors),
      finger_base_(finger_base) {
  SQUID_REQUIRE(id_bits >= 1 && id_bits <= 128, "id_bits must be in [1,128]");
  SQUID_REQUIRE(successors >= 1, "successor list needs at least one entry");
  SQUID_REQUIRE(finger_base >= 2, "finger base must be at least 2");
  finger_targets_ = finger_offsets();
}

std::vector<u128> ChordRing::finger_offsets() const {
  // Offsets j * base^k for j in [1, base) while the offset fits the ring.
  // For base 2 this is exactly the classic 2^k finger set.
  std::vector<u128> offsets;
  const u128 limit = id_mask();
  u128 scale = 1;
  for (;;) {
    bool any = false;
    for (unsigned j = 1; j < finger_base_; ++j) {
      const u128 offset = scale * j;
      if (offset > limit || offset / j != scale) break; // overflow guard
      offsets.push_back(offset);
      any = true;
    }
    if (!any) break;
    if (scale > limit / finger_base_) break;
    scale *= finger_base_;
  }
  return offsets;
}

// --- Flat membership primitives ---------------------------------------------

std::size_t ChordRing::lower_pos(u128 key) const {
  return static_cast<std::size_t>(
      std::lower_bound(ids_.begin(), ids_.end(), key) - ids_.begin());
}

std::size_t ChordRing::find_pos(NodeId id) const {
  const std::size_t pos = lower_pos(id);
  if (pos == ids_.size() || ids_[pos] != id || slot_[pos] == kDeadSlot)
    return npos;
  return pos;
}

std::uint32_t ChordRing::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t s = free_slots_.back();
    free_slots_.pop_back();
    arena_[s] = ChordNode{};
    return s;
  }
  arena_.emplace_back();
  return static_cast<std::uint32_t>(arena_.size() - 1);
}

void ChordRing::compact() {
  if (dead_pos_.empty()) return;
  if constexpr (obs::kEnabled) {
    RingMetrics::get().compactions.add(1);
    RingMetrics::get().tombstones_dropped.add(dead_pos_.size());
  }
  std::size_t out = 0;
  for (std::size_t pos = 0; pos < ids_.size(); ++pos) {
    if (slot_[pos] == kDeadSlot) continue;
    ids_[out] = ids_[pos];
    slot_[out] = slot_[pos];
    ++out;
  }
  ids_.resize(out);
  slot_.resize(out);
  dead_pos_.clear();
}

std::uint32_t ChordRing::insert_id(NodeId id) {
  compact();
  const std::uint32_t s = alloc_slot();
  const std::size_t pos = lower_pos(id);
  ids_.insert(ids_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  slot_.insert(slot_.begin() + static_cast<std::ptrdiff_t>(pos), s);
  arena_[s].id = id;
  ++live_count_;
  return s;
}

void ChordRing::remove_pos(std::size_t pos) {
  free_slots_.push_back(slot_[pos]);
  arena_[slot_[pos]] = ChordNode{}; // release finger/successor storage
  slot_[pos] = kDeadSlot;
  dead_pos_.insert(
      std::lower_bound(dead_pos_.begin(), dead_pos_.end(), pos), pos);
  --live_count_;
  // Bound tombstone density so reads stay near one binary search even under
  // removal-only churn.
  if (dead_pos_.size() * 2 > ids_.size()) compact();
}

// --- Ground-truth queries ----------------------------------------------------

NodeId ChordRing::successor_of(u128 key) const {
  SQUID_REQUIRE(live_count_ > 0, "successor_of on an empty ring");
  std::size_t pos = lower_pos(key);
  for (;;) {
    if (pos == ids_.size()) pos = 0;
    if (slot_[pos] != kDeadSlot) return ids_[pos];
    ++pos;
  }
}

NodeId ChordRing::predecessor_of(u128 key) const {
  SQUID_REQUIRE(live_count_ > 0, "predecessor_of on an empty ring");
  std::size_t pos = lower_pos(key);
  for (;;) {
    pos = (pos == 0 ? ids_.size() : pos) - 1;
    if (slot_[pos] != kDeadSlot) return ids_[pos];
  }
}

const ChordNode& ChordRing::node(NodeId id) const {
  const std::size_t pos = find_pos(id);
  SQUID_REQUIRE(pos != npos, "unknown node id");
  return arena_[slot_[pos]];
}

ChordNode& ChordRing::node(NodeId id) {
  const std::size_t pos = find_pos(id);
  SQUID_REQUIRE(pos != npos, "unknown node id");
  return arena_[slot_[pos]];
}

std::vector<NodeId> ChordRing::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(live_count_);
  for (std::size_t pos = 0; pos < ids_.size(); ++pos)
    if (slot_[pos] != kDeadSlot) ids.push_back(ids_[pos]);
  return ids;
}

NodeId ChordRing::random_node(Rng& rng) const {
  SQUID_REQUIRE(live_count_ > 0, "random_node on an empty ring");
  // The k-th smallest live id, exactly like std::advance over the old map
  // (query-replay determinism depends on it) — but O(1) on a compacted
  // array. With tombstones present, the k-th live entry is the least fixed
  // point of p = k + |dead positions <= p| (Kleene iteration over the small
  // sorted tombstone list).
  const auto k = static_cast<std::size_t>(rng.below(live_count_));
  if (dead_pos_.empty()) return ids_[k];
  std::size_t p = k;
  for (;;) {
    const auto dead = static_cast<std::size_t>(
        std::upper_bound(dead_pos_.begin(), dead_pos_.end(), p) -
        dead_pos_.begin());
    if (k + dead == p) break;
    p = k + dead;
  }
  assert(slot_[p] != kDeadSlot);
  return ids_[p];
}

NodeId ChordRing::random_free_id(Rng& rng) const {
  for (;;) {
    const NodeId id = id_bits_ >= 128 ? rng.next128()
                                      : rng.below128(static_cast<u128>(1)
                                                     << id_bits_);
    if (!contains(id)) return id;
  }
}

// --- Run-length finger table ---------------------------------------------------

namespace {

/// Index of the run covering logical finger entry `k`: the last run whose
/// first index is <= k (runs are nonempty and start at 0).
std::size_t run_of(const std::vector<FingerRun>& runs, std::size_t k) {
  const auto it = std::upper_bound(
      runs.begin(), runs.end(), k,
      [](std::size_t index, const FingerRun& run) { return index < run.first; });
  return static_cast<std::size_t>(it - runs.begin()) - 1;
}

/// Merge adjacent runs that hold the same id (each merged run keeps the
/// first index of its leftmost part).
void coalesce(std::vector<FingerRun>& runs) {
  runs.erase(std::unique(runs.begin(), runs.end(),
                         [](const FingerRun& a, const FingerRun& b) {
                           return a.id == b.id;
                         }),
             runs.end());
}

} // namespace

NodeId ChordRing::finger(const ChordNode& n, std::size_t k) const {
  SQUID_REQUIRE(k < finger_count(), "finger index out of range");
  SQUID_REQUIRE(!n.finger_runs.empty(), "node has no finger table");
  return n.finger_runs[run_of(n.finger_runs, k)].id;
}

void ChordRing::set_finger(ChordNode& n, std::size_t k, NodeId id) {
  SQUID_REQUIRE(k < finger_count(), "finger index out of range");
  SQUID_REQUIRE(!n.finger_runs.empty(), "node has no finger table");
  auto& runs = n.finger_runs;
  std::size_t r = run_of(runs, k);
  if (runs[r].id == id) return;
  const auto first = static_cast<std::uint32_t>(k);
  const std::size_t end =
      r + 1 < runs.size() ? runs[r + 1].first : finger_count();
  // Split so that entry k is a run of its own, repoint it, then merge it
  // with a neighbor that already holds `id`.
  if (runs[r].first < first) {
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(r + 1),
                FingerRun{runs[r].id, first});
    ++r;
  }
  if (k + 1 < end)
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(r + 1),
                FingerRun{runs[r].id, first + 1});
  runs[r].id = id;
  coalesce(runs);
}

void ChordRing::append_finger(ChordNode& n, std::size_t k, NodeId id) {
  if (n.finger_runs.empty() || n.finger_runs.back().id != id)
    n.finger_runs.push_back(FingerRun{id, static_cast<std::uint32_t>(k)});
}

// --- Exact wiring (experiment setup) -----------------------------------------

std::size_t ChordRing::wire_links(std::size_t r) {
  assert(slot_[r] != kDeadSlot);
  const std::size_t count = ids_.size();
  // Neighbor walks skip tombstones: after mass departure up to half the
  // array can be dead (remove_pos defers compaction), and resolving a link
  // through a dead entry would hand out a vanished peer — or, via its
  // recycled arena slot, a different node entirely. On a dense array every
  // walk is a single step, so the compacted fast path costs what it did.
  const auto next_live = [&](std::size_t p) {
    do {
      p = p + 1 == count ? 0 : p + 1;
    } while (slot_[p] == kDeadSlot);
    return p;
  };
  ChordNode& n = arena_[slot_[r]];
  std::size_t p = r;
  do {
    p = p == 0 ? count - 1 : p - 1;
  } while (slot_[p] == kDeadSlot);
  n.predecessor = ids_[p];
  n.has_predecessor = true;
  n.successors.clear();
  n.successors.reserve(successor_list_len_);
  // The next successor_list_len_ live entries clockwise (the node itself
  // closes the list on tiny rings).
  p = r;
  for (unsigned i = 0; i < successor_list_len_; ++i) {
    p = next_live(p);
    n.successors.push_back(ids_[p]);
    if (p == r) break; // wrapped all the way around
  }
  // clear keeps the capacity, so the warm repair path rewires in place.
  n.finger_runs.clear();
  if (live_count_ == 1) {
    n.finger_runs.push_back(FingerRun{n.id, 0});
    return finger_count();
  }
  // With N nodes in a 2^bits space, every finger whose target offset fits
  // inside the gap to the immediate successor resolves to that successor —
  // at paper scales that is the vast majority of the table (offsets are
  // geometric, the gap is ~2^bits/N). finger_targets_ is ascending, so one
  // search over it replaces ~log2(2^bits/N) membership searches per node,
  // and the whole prefix is a single run.
  const NodeId next = n.successors.front();
  const u128 gap = (next - n.id) & id_mask();
  const std::size_t k0 = static_cast<std::size_t>(
      std::upper_bound(finger_targets_.begin(), finger_targets_.end(), gap) -
      finger_targets_.begin());
  // One run for the prefix plus at most one per remaining entry: a single
  // allocation on a cold build.
  n.finger_runs.reserve(finger_count() - k0 + 1);
  if (k0 > 0) n.finger_runs.push_back(FingerRun{next, 0});
  return k0;
}

void ChordRing::wire_rank(std::size_t r) {
  const std::size_t count = ids_.size();
  ChordNode& n = arena_[slot_[r]];
  for (std::size_t k = wire_links(r); k < finger_count(); ++k) {
    std::size_t pos = lower_pos(finger_target_of(n.id, k));
    if (pos == count) pos = 0;
    // A binary search lands on positions, not liveness: step past any
    // tombstones to the target's first *live* successor.
    while (slot_[pos] == kDeadSlot) pos = pos + 1 == count ? 0 : pos + 1;
    append_finger(n, k, ids_[pos]);
  }
}

void ChordRing::repair_all() {
  if (live_count_ == 0) return;
  const std::size_t count = ids_.size();
  // First live position: where finger targets past the array end wrap to.
  std::size_t first_live = 0;
  while (slot_[first_live] == kDeadSlot) ++first_live;
  // Sweeping all ranks in order makes finger k's target monotone (mod one
  // wrap), so a rolling cursor per finger index answers each long-range
  // finger in amortized O(1) where a membership binary search paid
  // O(log N). Short-range fingers never touch their cursor (wire_links
  // fills them from the successor gap). Tombstoned entries are skipped on
  // both sides — as sweep subjects and as cursor answers — so repair after
  // mass departure never resolves a link through a dead slot; dead
  // positions cost one extra cursor step each, amortized over the sweep.
  std::vector<std::size_t> cursor(finger_count(), 0);
  std::vector<u128> prev_target(finger_count(), 0);
  for (std::size_t r = 0; r < count; ++r) {
    if (slot_[r] == kDeadSlot) continue;
    ChordNode& n = arena_[slot_[r]];
    for (std::size_t k = wire_links(r); k < finger_count(); ++k) {
      const u128 target = finger_target_of(n.id, k);
      std::size_t& c = cursor[k];
      // The target sequence wrapped past zero: restart the cursor. (If the
      // wrap happened during ranks that skipped this k and the target is
      // already back above the last one seen, the stale cursor is still a
      // valid lower bound — no reset needed.)
      if (target < prev_target[k]) c = 0;
      prev_target[k] = target;
      while (c < count && (ids_[c] < target || slot_[c] == kDeadSlot)) ++c;
      append_finger(n, k, ids_[c == count ? first_live : c]);
    }
  }
}

void ChordRing::add_node_exact(NodeId id) {
  SQUID_REQUIRE(id <= id_mask(), "node id exceeds the identifier space");
  SQUID_REQUIRE(!contains(id), "duplicate node id");
  const std::uint32_t s = insert_id(id); // compacts: array is dense now
  wire_rank(lower_pos(id));
  // Splice the neighbors so the ring stays exactly consistent: the new
  // node's predecessor gains it as immediate successor, the successor gains
  // it as predecessor. Remote fingers elsewhere stay stale by design.
  if (live_count_ > 1) {
    ChordNode& self = arena_[s];
    ChordNode& pred = node(self.predecessor);
    pred.successors.insert(pred.successors.begin(), id);
    if (pred.successors.size() > successor_list_len_)
      pred.successors.pop_back();
    ChordNode& succ = node(self.successors.front());
    succ.predecessor = id;
    succ.has_predecessor = true;
  }
}

void ChordRing::build(std::size_t count, Rng& rng) {
  SQUID_REQUIRE(count >= 1, "cannot build an empty ring");
  compact();
  // Mirror the incremental-insert draw loop exactly: collisions retry and
  // consume rng against everything drawn so far. Only the per-draw
  // membership answer matters for the stream, so a hash set stands in for
  // the seed's ordered map; the fresh ids are sorted once afterwards.
  struct IdHash {
    std::size_t operator()(NodeId id) const noexcept {
      const auto lo = static_cast<std::uint64_t>(id);
      const auto hi = static_cast<std::uint64_t>(id >> 64);
      return static_cast<std::size_t>((lo ^ hi * 0x9e3779b97f4a7c15ull) *
                                      0xbf58476d1ce4e5b9ull);
    }
  };
  std::unordered_set<NodeId, IdHash> members(ids_.begin(), ids_.end());
  members.reserve(count);
  std::vector<NodeId> fresh;
  fresh.reserve(count - std::min(count, live_count_));
  while (members.size() < count) {
    for (;;) {
      const NodeId id = id_bits_ >= 128
                            ? rng.next128()
                            : rng.below128(static_cast<u128>(1) << id_bits_);
      if (members.insert(id).second) {
        fresh.push_back(id);
        break;
      }
    }
  }
  std::sort(fresh.begin(), fresh.end());
  arena_.reserve(arena_.size() - free_slots_.size() + fresh.size());
  std::vector<NodeId> merged;
  std::vector<std::uint32_t> merged_slots;
  merged.reserve(ids_.size() + fresh.size());
  merged_slots.reserve(ids_.size() + fresh.size());
  std::size_t old = 0;
  for (const NodeId id : fresh) {
    while (old < ids_.size() && ids_[old] < id) {
      merged.push_back(ids_[old]);
      merged_slots.push_back(slot_[old++]);
    }
    merged.push_back(id);
    merged_slots.push_back(alloc_slot());
    arena_[merged_slots.back()].id = id;
  }
  while (old < ids_.size()) {
    merged.push_back(ids_[old]);
    merged_slots.push_back(slot_[old++]);
  }
  ids_ = std::move(merged);
  slot_ = std::move(merged_slots);
  live_count_ = ids_.size();
  if constexpr (obs::kEnabled) RingMetrics::get().joins.add(fresh.size());
  repair_all();
}

// --- Protocol operations -----------------------------------------------------

std::optional<NodeId> ChordRing::first_alive_successor(
    const ChordNode& n) const {
  for (const NodeId s : n.successors)
    if (contains(s)) return s;
  return std::nullopt;
}

NodeId ChordRing::closest_preceding_alive(const ChordNode& n, u128 key) const {
  // Pick the live finger that makes the most clockwise progress toward key
  // while staying strictly before it. Progress is injective in the finger
  // id, so this argmax is a set function of the distinct fingers: scanning
  // runs instead of logical entries cannot change it. Nor can testing
  // liveness last — a finger that does not beat the best so far cannot win
  // whether it is alive or not — and that makes the binary-search probe
  // rare: scanning from the farthest finger down, the first live candidate
  // inside (n, key) is usually the winner.
  NodeId best = n.id;
  u128 best_progress = 0;
  for (auto run = n.finger_runs.rbegin(); run != n.finger_runs.rend(); ++run) {
    const NodeId f = run->id;
    if (!in_open_open(n.id, key, f)) continue;
    const u128 progress = ring_distance(n.id, f, id_bits_);
    if (progress <= best_progress || !contains(f)) continue;
    best = f;
    best_progress = progress;
  }
  return best;
}

RouteResult ChordRing::route(NodeId from, u128 key) const {
  const RouteResult result = [&] {
    RouteResult r;
    SQUID_REQUIRE(contains(from), "route source is not in the ring");
    SQUID_REQUIRE(key <= id_mask(), "key exceeds the identifier space");
    NodeId cur = from;
    r.path.push_back(cur);
    for (std::size_t hop = 0; hop < max_route_hops(); ++hop) {
      const ChordNode& n = node(cur);
      const auto succ = first_alive_successor(n);
      if (!succ) return r; // partitioned: no live successor known
      if (in_open_closed(cur, *succ, key)) {
        r.ok = true;
        r.dest = *succ;
        if (*succ != cur) r.path.push_back(*succ);
        return r;
      }
      NodeId next = closest_preceding_alive(n, key);
      if (next == cur) next = *succ; // fingers useless: crawl the ring
      if (next == cur) return r; // single stale node: no progress
      r.path.push_back(next);
      cur = next;
    }
    return r; // hop budget exhausted (routing loop under heavy churn)
  }();
  if constexpr (obs::kEnabled) {
    RingMetrics& m = RingMetrics::get();
    m.routes.add(1);
    if (result.ok) m.route_hops.add(result.hops());
    else m.route_failures.add(1);
  }
  return result;
}

RouteResult ChordRing::join(NodeId new_id, NodeId bootstrap) {
  SQUID_REQUIRE(new_id <= id_mask(), "node id exceeds the identifier space");
  SQUID_REQUIRE(!contains(new_id), "duplicate node id");
  RouteResult r = route(bootstrap, new_id);
  if (!r.ok) return r;
  if constexpr (obs::kEnabled) RingMetrics::get().joins.add(1);

  ChordNode n;
  n.id = new_id;
  {
    const ChordNode& succ = node(r.dest);
    n.successors.push_back(r.dest);
    for (const NodeId s : succ.successors) {
      if (n.successors.size() >= successor_list_len_) break;
      if (s != new_id) n.successors.push_back(s);
    }
    // Seed fingers from the successor's table (standard bootstrap
    // approximation); stabilization tightens them over time.
    n.finger_runs = succ.finger_runs;
    if (n.finger_runs.empty()) n.finger_runs.push_back(FingerRun{r.dest, 0});
    set_finger(n, 0, r.dest);
    if (succ.has_predecessor) {
      n.predecessor = succ.predecessor;
      n.has_predecessor = true;
    }
  } // the arena may reallocate below: drop the reference first
  const std::uint32_t s = insert_id(new_id);
  arena_[s] = std::move(n);

  ChordNode& succ_mut = node(r.dest);
  succ_mut.predecessor = new_id;
  succ_mut.has_predecessor = true;
  // Eager notify of the predecessor keeps the ring routable immediately, as
  // the first post-join stabilize round would.
  const ChordNode& self = arena_[s];
  if (self.has_predecessor && contains(self.predecessor)) {
    ChordNode& pred = node(self.predecessor);
    pred.successors.insert(pred.successors.begin(), new_id);
    if (pred.successors.size() > successor_list_len_)
      pred.successors.pop_back();
  }
  return r;
}

void ChordRing::leave(NodeId id) {
  const std::size_t pos = find_pos(id);
  SQUID_REQUIRE(pos != npos, "unknown node id");
  if constexpr (obs::kEnabled) RingMetrics::get().leaves.add(1);
  const ChordNode& n = arena_[slot_[pos]];
  const auto succ = first_alive_successor(n);
  // Patch the neighbors (paper 3.2 Node Departures); distant finger tables
  // stay stale until their owners stabilize.
  if (succ && *succ != id) {
    ChordNode& s = node(*succ);
    if (n.has_predecessor && contains(n.predecessor)) {
      s.predecessor = n.predecessor;
      s.has_predecessor = true;
      ChordNode& p = node(n.predecessor);
      std::erase(p.successors, id);
      p.successors.insert(p.successors.begin(), *succ);
    }
  }
  remove_pos(pos);
}

void ChordRing::fail(NodeId id) {
  const std::size_t pos = find_pos(id);
  SQUID_REQUIRE(pos != npos, "unknown node id");
  if constexpr (obs::kEnabled) RingMetrics::get().fails.add(1);
  remove_pos(pos);
}

void ChordRing::stabilize(NodeId id, Rng& rng) {
  if (!contains(id)) return;
  if constexpr (obs::kEnabled) RingMetrics::get().stabilize_ops.add(1);
  ChordNode& n = node(id);

  // 1. Successor repair: drop dead list entries from the front.
  auto succ = first_alive_successor(n);
  if (!succ) {
    // All known successors died (catastrophic). A real node would re-join
    // through an out-of-band bootstrap; model that directly.
    succ = successor_of((id + 1) & id_mask());
    if constexpr (obs::kEnabled)
      RingMetrics::get().successor_fallbacks.add(1);
  }

  // 2. Classic stabilize: adopt the successor's predecessor if closer.
  {
    const ChordNode& s = node(*succ);
    if (s.has_predecessor && contains(s.predecessor) &&
        in_open_open(id, *succ, s.predecessor)) {
      succ = s.predecessor;
    }
  }

  // 3. Refresh the successor list from the (possibly new) successor.
  std::vector<NodeId> fresh{*succ};
  for (const NodeId s : node(*succ).successors) {
    if (fresh.size() >= successor_list_len_) break;
    if (s != id && contains(s)) fresh.push_back(s);
  }
  n.successors = std::move(fresh);

  // 4. Notify the successor about us.
  {
    ChordNode& s = node(*succ);
    if (!s.has_predecessor || !contains(s.predecessor) ||
        in_open_open(s.predecessor, s.id, id)) {
      s.predecessor = id;
      s.has_predecessor = true;
    }
  }

  // 5. Fix one random finger via a routed lookup (paper: each node
  // periodically "chooses a random entry in its finger table, checks for its
  // state, and updates it if required").
  if (n.finger_runs.empty()) n.finger_runs.push_back(FingerRun{*succ, 0});
  const auto k = static_cast<std::size_t>(rng.below(finger_count()));
  const RouteResult r = route(id, finger_target_of(id, k));
  if (r.ok) {
    set_finger(node(id), k, r.dest);
    if constexpr (obs::kEnabled) RingMetrics::get().finger_fixes.add(1);
  }
  set_finger(node(id), 0, *succ);
}

void ChordRing::note_timeout(NodeId observer, NodeId dead) {
  if (observer == dead) return;
  const std::size_t pos = find_pos(observer);
  if (pos == npos) return; // the observer itself vanished since reporting
  if constexpr (obs::kEnabled) RingMetrics::get().timeout_repairs.add(1);
  ChordNode& n = arena_[slot_[pos]];
  // Successor-list fallback: the suspect is dropped, so routing falls
  // through to the next live entry immediately instead of on every lookup.
  std::erase(n.successors, dead);
  // Finger invalidation: entries pointing at the suspect are repointed at
  // the first alive successor — the node a timed-out RPC would retry via.
  // If the whole list died too (catastrophic), fingers fall back to self
  // and the next stabilize round re-bootstraps.
  const auto succ = first_alive_successor(n);
  const NodeId fallback = succ ? *succ : observer;
  for (FingerRun& run : n.finger_runs)
    if (run.id == dead) run.id = fallback;
  coalesce(n.finger_runs);
  if (n.has_predecessor && n.predecessor == dead) n.has_predecessor = false;
}

void ChordRing::stabilize_all(Rng& rng, unsigned rounds) {
  for (unsigned round = 0; round < rounds; ++round) {
    std::vector<NodeId> order = node_ids();
    rng.shuffle(order);
    for (const NodeId id : order) stabilize(id, rng);
  }
}

bool ChordRing::ring_consistent() const {
  for (std::size_t pos = 0; pos < ids_.size(); ++pos) {
    if (slot_[pos] == kDeadSlot) continue;
    const ChordNode& n = arena_[slot_[pos]];
    const auto succ = first_alive_successor(n);
    if (!succ) return false;
    if (*succ != successor_of((n.id + 1) & id_mask())) return false;
  }
  return true;
}

} // namespace squid::overlay

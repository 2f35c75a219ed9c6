// Chord overlay network (paper 3.2), simulated in-process.
//
// Node identifiers are random values in [0, 2^id_bits); every key is owned
// by its successor — the first node clockwise at or after it. Each node
// keeps a finger table (finger k = successor(id + 2^k)), a predecessor, and
// a short successor list for fault tolerance. Routing is iterative greedy
// closest-preceding-finger, O(log N) hops on a converged ring. Joins splice
// through routed lookups, departures are graceful notifications, failures
// leave stale state behind that periodic stabilization repairs — exactly the
// maintenance story of 3.2.
//
// The ring object owns all nodes (this is a simulator, not a network stack);
// honesty discipline: route() and stabilization act only on the local state
// of the nodes involved. Ground-truth helpers (successor_of, repair_all) are
// clearly named and used only for experiment setup and assertions.
//
// Membership is stored flat (DESIGN.md 4b): a sorted contiguous array of
// identifiers with a parallel slot table into a stable node arena, instead
// of a node-based std::map. successor_of / predecessor_of / contains are
// binary searches over contiguous u128s, random_node is an O(1) (amortized)
// rank pick, and repair_all wires whole tables by rank arithmetic. Leave and
// fail tombstone their array entry; compaction is deferred to the next
// insert (which pays O(N) for its shift anyway) or to a density threshold.
//
// Finger tables are stored as runs (DESIGN.md 4b). Of the finger_count()
// logical entries most repeat the immediate successor and the rest take only
// ~log2 N distinct values, so each node keeps one {id, first index} run per
// maximal block of equal entries. Routing scans the runs (distinct fingers)
// and probes liveness only for a finger that would win; all reads and
// writes of a single entry go through finger() / set_finger().

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "squid/overlay/id_space.hpp"
#include "squid/util/rng.hpp"

namespace squid::overlay {

/// A maximal block of equal finger entries: logical entries
/// [first, next run's first) — or up to finger_count() for the last run —
/// all point at `id`.
struct FingerRun {
  NodeId id = 0;
  std::uint32_t first = 0;
};

struct ChordNode {
  NodeId id = 0;
  NodeId predecessor = 0;
  bool has_predecessor = false;
  /// Run-length finger table: logical entry k (ideally the successor of
  /// finger_target_of(id, k)) lives in the last run with first <= k. Starts
  /// rise strictly from 0 and adjacent runs hold different ids; read and
  /// write single entries through ChordRing::finger / set_finger.
  std::vector<FingerRun> finger_runs;
  std::vector<NodeId> successors; ///< successor list, [0] = immediate
};

/// Outcome of one iterative routing operation. `path` lists every node that
/// handled the message, starting at the source and ending at the owner of
/// the key (on success).
struct RouteResult {
  bool ok = false;
  NodeId dest = 0;
  std::vector<NodeId> path;

  /// Overlay hops = messages sent during routing.
  std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }
};

class ChordRing {
public:
  /// `id_bits`: ring width (paper uses the SFC index width). `successors`:
  /// length of each node's successor list. `finger_base`: 2 gives classic
  /// Chord fingers at id + 2^k; base b keeps (b-1) fingers per base-b digit
  /// at id + j*b^k — shorter routes (log_b N hops) for larger tables (the
  /// k-ary lookup generalization of El-Ansary et al.; ablation bench).
  explicit ChordRing(unsigned id_bits, unsigned successors = 8,
                     unsigned finger_base = 2);

  unsigned id_bits() const noexcept { return id_bits_; }
  unsigned finger_base() const noexcept { return finger_base_; }
  /// Number of logical finger-table entries per node for this ring's
  /// geometry (the runs of ChordNode::finger_runs cover exactly these).
  std::size_t finger_count() const noexcept { return finger_targets_.size(); }
  /// Logical finger entry `k` of `n` (k < finger_count()).
  NodeId finger(const ChordNode& n, std::size_t k) const;
  /// Point logical finger entry `k` of `n` at `id`, splitting the run that
  /// covers k and coalescing equal neighbors. `n` must carry a table wired
  /// for this ring.
  void set_finger(ChordNode& n, std::size_t k, NodeId id);
  /// The k-th finger target of `id`: (id + finger_targets_[k]) mod 2^bits.
  NodeId finger_target_of(NodeId id, std::size_t k) const {
    return (id + finger_targets_[k]) & id_mask();
  }
  u128 id_mask() const noexcept { return low_mask(id_bits_); }
  std::size_t size() const noexcept { return live_count_; }
  bool contains(NodeId id) const { return find_pos(id) != npos; }

  /// Experiment setup: create `count` nodes with distinct random ids and
  /// wire every table exactly.
  void build(std::size_t count, Rng& rng);

  /// Create a node with the given id and wire it exactly (no routing cost).
  /// Used by setup code and by the load-balancing join which has already
  /// chosen the id.
  void add_node_exact(NodeId id);

  /// Protocol-faithful join: route from `bootstrap` to the successor of
  /// `new_id`, splice in, and seed the finger table from the successor.
  /// Entries converge via stabilization. Returns the routing cost.
  RouteResult join(NodeId new_id, NodeId bootstrap);

  /// Graceful departure: neighbors are patched, fingers elsewhere go stale
  /// until stabilization repairs them.
  void leave(NodeId id);

  /// Abrupt failure: the node vanishes; all remote state pointing at it is
  /// left dangling.
  void fail(NodeId id);

  /// Iterative lookup from `from` for `key`, using only finger tables and
  /// successor lists of the nodes on the path (dead fingers are skipped the
  /// way a real node would after an RPC timeout).
  RouteResult route(NodeId from, u128 key) const;

  /// One stabilization round at `id` (paper 3.2, node failures): verify the
  /// immediate successor (falling back along the successor list), refresh
  /// the successor list, notify the successor, and fix one random finger.
  void stabilize(NodeId id, Rng& rng);

  /// Failure detection (docs/FAULT_MODEL.md): `observer` exhausted its
  /// message retries against `dead` and now suspects it. Purge `dead` from
  /// the observer's successor list, repoint fingers at the observer's next
  /// live successor, and clear a predecessor link to it — exactly what a
  /// real node does after an RPC timeout. Safe against false positives
  /// (message loss to a live peer): stabilization re-learns pruned state.
  void note_timeout(NodeId observer, NodeId dead);

  /// Run `rounds` full sweeps of stabilize() over every node, in random
  /// order.
  void stabilize_all(Rng& rng, unsigned rounds = 1);

  /// Ground truth: owner of `key` given current membership.
  NodeId successor_of(u128 key) const;
  /// Ground truth: first node strictly before `key` (wrapping).
  NodeId predecessor_of(u128 key) const;

  /// Recompute every node's predecessor/successor-list/fingers exactly.
  /// Tolerates tombstoned entries: after mass departure the membership
  /// array may hold up to ~50% dead slots (remove_pos defers compaction),
  /// and repair resolves every link through live entries only instead of
  /// assuming a dense array.
  void repair_all();

  const ChordNode& node(NodeId id) const;
  ChordNode& node(NodeId id);

  /// All node ids in ring order (ascending).
  std::vector<NodeId> node_ids() const;

  /// Random existing node id (uniform); requires a nonempty ring.
  NodeId random_node(Rng& rng) const;

  /// Draw an id not currently present in the ring.
  NodeId random_free_id(Rng& rng) const;

  /// True when every node's immediate successor matches ground truth.
  bool ring_consistent() const;

  /// Maximum hops allowed before route() declares failure.
  std::size_t max_route_hops() const noexcept { return 4 * (id_bits_ + 2); }

private:
  static constexpr std::uint32_t kDeadSlot = 0xffffffffu;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  NodeId closest_preceding_alive(const ChordNode& n, u128 key) const;
  std::optional<NodeId> first_alive_successor(const ChordNode& n) const;

  /// First array position with ids_[pos] >= key (== ids_.size() past end).
  std::size_t lower_pos(u128 key) const;
  /// Array position of live node `id`, or npos.
  std::size_t find_pos(NodeId id) const;
  /// Wire predecessor, successor list, and the short-range finger prefix of
  /// the node at array position `r` (must be live; tombstoned neighbors are
  /// skipped) — the prefix becomes one run. Returns the first finger index
  /// still needing a membership search; callers append the rest in index
  /// order with append_finger.
  std::size_t wire_links(std::size_t r);
  /// Append logical entry `k` (the next index after the table's last) to a
  /// run table being wired in index order: a new run only when `id` differs
  /// from the last run's.
  static void append_finger(ChordNode& n, std::size_t k, NodeId id);
  /// Wire the node at array position `r` exactly (binary search per finger,
  /// stepping over tombstones).
  void wire_rank(std::size_t r);
  /// Drop tombstones, restoring ids_/slot_ to dense rank order.
  void compact();
  /// Sorted insert of a fresh id (compacts first); returns its slot.
  std::uint32_t insert_id(NodeId id);
  /// Tombstone the entry at `pos` and recycle its slot.
  void remove_pos(std::size_t pos);
  std::uint32_t alloc_slot();

  unsigned id_bits_;
  unsigned successor_list_len_;
  unsigned finger_base_;
  std::vector<u128> finger_offsets() const; // built once in the ctor
  std::vector<u128> finger_targets_;        // offsets j*base^k, ascending

  std::vector<NodeId> ids_;         ///< sorted; tombstoned entries included
  std::vector<std::uint32_t> slot_; ///< parallel: arena slot, or kDeadSlot
  std::vector<ChordNode> arena_;    ///< slot storage; slots are recycled
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::size_t> dead_pos_; ///< sorted tombstone positions in ids_
  std::size_t live_count_ = 0;
};

} // namespace squid::overlay

// Routing-geometry ablation (extension; paper 5 lists "other network
// topologies" as future work): k-ary finger tables trade state for hops.
// Base b keeps (b-1)*log_b(2^m) logical fingers and routes in ~log_b N
// hops; "distinct fingers/node" is the state the ring actually stores (one
// finger run per distinct entry, DESIGN.md 4b).

#include "common/fixture.hpp"
#include "squid/stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace squid;
  using namespace squid::bench;
  const Flags flags = Flags::parse(argc, argv);
  const std::size_t nodes =
      std::max<std::size_t>(64, static_cast<std::size_t>(5000 * flags.shrink()));

  Table table({"finger base", "fingers/node", "distinct fingers/node",
               "mean hops", "p99 hops", "max hops"});
  for (const unsigned base : {2u, 4u, 8u, 16u}) {
    Rng rng(flags.seed);
    overlay::ChordRing ring(48, 8, base);
    ring.build(nodes, rng);
    std::size_t runs = 0;
    for (const overlay::NodeId id : ring.node_ids())
      runs += ring.node(id).finger_runs.size();
    Summary hops;
    for (int trial = 0; trial < 2000; ++trial) {
      const auto r = ring.route(ring.random_node(rng),
                                rng.below128(static_cast<u128>(1) << 48));
      if (r.ok) hops.add(static_cast<double>(r.hops()));
    }
    table.add_row({Table::cell(std::uint64_t{base}),
                   Table::cell(std::uint64_t{ring.finger_count()}),
                   Table::cell(static_cast<double>(runs) /
                               static_cast<double>(ring.size())),
                   Table::cell(hops.mean()), Table::cell(hops.percentile(99)),
                   Table::cell(hops.max())});
  }
  emit("Finger-base ablation: state vs hops (" + std::to_string(nodes) +
           " nodes)",
       table, flags);
  return 0;
}

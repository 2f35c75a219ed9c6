// The traced run: the per-layer split of each op's wall time.
//
// Measure end to end with tracing off, then run the same op sequence on a
// second build of the same seed with SquidSystem tracing on. Each public
// call (query(), query_parallel, apply_updates) is a parent span; after it
// returns, the layer calls it made are replayed through each layer's public
// functions, with arguments read from QueryResult::trace or from the op
// itself, and each replay group is a child span. Spans stay in memory and
// are written as Chrome trace_event JSON at the end.
//
// Query replays:  keyword.to_rect (KeywordSpace::to_rect), sfc.refine
//   (ClusterRefiner::refine on the parent clusters a refine-descend span
//   expanded, recovered from its prune and dispatch children),
//   overlay.route (ChordRing::route from each route-hop span's first path
//   node to its destination), store.scan (util::TieredStore::scan over each
//   local-scan range, on a mirror of the system's store built from
//   for_each_key), codec.sizing (element_wire_size per shipped element).
// Update replays: keyword.encode, sfc.index_of, overlay.route (origin to
//   the key), codec save_message/load_message of the Publish/RetractRequest
//   frame, and store obtain/erase on the mirror.
// sim: a subset of queries is re-run through query_async on the benchmark's
//   own engine, timing each Engine::step.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "squid/core/messages.hpp"
#include "squid/core/serialize.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/obs/trace.hpp"
#include "squid/sfc/refine.hpp"
#include "squid/sim/engine.hpp"
#include "squid/util/store.hpp"

namespace squidbench {
namespace {

struct SpanRec {
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  const char* name = "";
  double start_us = 0, dur_us = 0;
  std::uint64_t count = 0;
};

/// Accumulated replay time and call count of one layer.
struct Layer {
  double ns = 0;
  std::uint64_t calls = 0;
  double per_call() const { return calls ? ns / static_cast<double>(calls) : 0; }
};

struct MirrorKey {
  sfc::Point point;
  std::vector<core::DataElement> elements;
};

/// Runs `fn` and returns its wall time in ns.
template <class Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ns_between(t0, Clock::now());
}

/// Every k-th query is re-run through query_async for the sim layer.
constexpr std::uint64_t kSimEvery = 4;

/// What the traced pass measured: per-layer replay totals, counts, and the
/// recorded spans.
struct TraceStats {
  // --- Query side ----------------------------------------------------------
  Layer to_rect, refine, route, scan, sizing, step;
  double query_op_ns = 0, query_replay_ns = 0;
  std::uint64_t queries = 0, refine_spans = 0, prune_spans = 0,
                route_spans = 0, route_hops = 0, keys_scanned = 0,
                keys_matched = 0, scan_mismatches = 0, sim_queries = 0,
                sim_mismatches = 0, missing_traces = 0;
  // --- Update side ---------------------------------------------------------
  Layer encode, index_of, update_route, frame_encode, frame_decode, obtain,
      erase;
  double update_op_ns = 0, update_replay_ns = 0;
  std::uint64_t updates = 0, frame_bytes = 0, codec_mismatches = 0,
                route_mismatches = 0;
  std::vector<SpanRec> spans;
  /// Replay results folded together and printed, so no replay is dead code.
  std::uint64_t sink = 0;
};

class Tracer : public Hooks, public TraceStats {
public:
  Tracer(core::SquidSystem& sys, Clock::time_point epoch)
      : epoch_(epoch), refiner_(sys.curve()),
        mirror_(sys.config().store_delta_cap) {
    std::vector<u128> index;
    std::vector<MirrorKey> keys;
    sys.for_each_key([&](u128 i, const sfc::Point& point,
                         const std::vector<core::DataElement>& elements) {
      index.push_back(i);
      keys.push_back({point, elements});
    });
    mirror_.assign_sorted(std::move(index), std::move(keys));
  }

  void after_query(core::SquidSystem& sys, const keyword::Query& query,
                   overlay::NodeId origin, const core::QueryResult& result,
                   Clock::time_point start, double wall_ns) override {
    const std::int32_t parent = open_op("query", start, wall_ns, 1);
    query_op_ns += wall_ns;
    query_replay_ns += replay_query(sys, query, origin, result, parent);
  }

  void after_query_batch(core::SquidSystem& sys,
                         const std::vector<core::ParallelQuerySpec>& specs,
                         const core::ParallelRun& run, Clock::time_point start,
                         double wall_ns) override {
    const std::int32_t parent =
        open_op("query_parallel", start, wall_ns, specs.size());
    query_op_ns += wall_ns;
    for (std::size_t k = 0; k < specs.size(); ++k)
      query_replay_ns += replay_query(sys, specs[k].query, specs[k].origin,
                                      run.results[k], parent);
  }

  void after_updates(core::SquidSystem& sys,
                     const std::vector<core::UpdateOp>& ops,
                     const core::UpdateRun& run, Clock::time_point start,
                     double wall_ns) override {
    const std::int32_t parent =
        open_op("apply_updates", start, wall_ns, ops.size());
    update_op_ns += wall_ns;
    updates += ops.size();
    const std::size_t n = ops.size();
    std::vector<sfc::Point> points(n);
    std::vector<u128> keys(n);
    std::vector<overlay::NodeId> owners(n);
    double replay = 0;
    replay += child(parent, "keyword.encode", encode, n, [&] {
      for (std::size_t i = 0; i < n; ++i)
        points[i] = sys.space().encode(ops[i].element.keys);
    });
    replay += child(parent, "sfc.index_of", index_of, n, [&] {
      for (std::size_t i = 0; i < n; ++i) keys[i] = sys.curve().index_of(points[i]);
    });
    replay += child(parent, "overlay.route", update_route, n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const overlay::RouteResult r = sys.ring().route(ops[i].origin, keys[i]);
        owners[i] = r.dest;
        route_mismatches += r.hops() != run.results[i].hops ? 1 : 0;
      }
    });
    std::vector<core::msg::Message> frames;
    frames.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (ops[i].kind == core::UpdateOp::Kind::kPublish)
        frames.emplace_back(core::msg::PublishRequest{
            i, ops[i].origin, owners[i], ops[i].element, 0, -1});
      else
        frames.emplace_back(core::msg::RetractRequest{
            i, ops[i].origin, owners[i], ops[i].element, 0, -1});
    }
    std::vector<std::string> wire(n);
    replay += child(parent, "codec.update_encode", frame_encode, n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        std::ostringstream out;
        frame_bytes += core::save_message(frames[i], out);
        wire[i] = std::move(out).str();
      }
    });
    std::vector<core::msg::Message> decoded(n);
    replay += child(parent, "codec.update_decode", frame_decode, n, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        std::istringstream in(wire[i]);
        decoded[i] = core::load_message(in);
      }
    });
    for (std::size_t i = 0; i < n; ++i)
      codec_mismatches += decoded[i] == frames[i] ? 0 : 1;
    // Store: apply the ops to the mirror in submit order (the update plane
    // commits in submit order too), timing each obtain/erase call.
    const Layer obtain_before = obtain, erase_before = erase;
    for (std::size_t i = 0; i < n; ++i) {
      const core::DataElement& e = ops[i].element;
      if (ops[i].kind == core::UpdateOp::Kind::kPublish) {
        MirrorKey* slot = nullptr;
        obtain.ns += timed([&] { slot = &mirror_.obtain(keys[i]); });
        ++obtain.calls;
        slot->point = points[i];
        const auto same = std::find_if(
            slot->elements.begin(), slot->elements.end(),
            [&](const core::DataElement& x) { return x.name == e.name; });
        if (same != slot->elements.end()) *same = e;
        else slot->elements.push_back(e);
      } else if (MirrorKey* slot = mirror_.find(keys[i])) {
        const auto it =
            std::find(slot->elements.begin(), slot->elements.end(), e);
        if (it != slot->elements.end()) slot->elements.erase(it);
        if (slot->elements.empty()) {
          erase.ns += timed([&] { mirror_.erase(keys[i]); });
          ++erase.calls;
        }
      }
    }
    const double store_ns =
        (obtain.ns - obtain_before.ns) + (erase.ns - erase_before.ns);
    close_child(parent, "store.obtain_erase", Clock::now(), store_ns,
                (obtain.calls - obtain_before.calls) +
                    (erase.calls - erase_before.calls));
    update_replay_ns += replay + store_ns;
  }

private:
  std::int32_t open_op(const char* name, Clock::time_point start,
                       double wall_ns, std::uint64_t count) {
    spans.push_back({next_op_, -1, name, ns_between(epoch_, start) * 1e-3,
                     wall_ns * 1e-3, count});
    ++next_op_;
    return static_cast<std::int32_t>(spans.size() - 1);
  }

  void close_child(std::int32_t parent, const char* name,
                   Clock::time_point end, double ns, std::uint64_t count) {
    spans.push_back({spans[static_cast<std::size_t>(parent)].op, parent, name,
                     (ns_between(epoch_, end) - ns) * 1e-3, ns * 1e-3, count});
  }

  /// Time one replay group as a child span of `parent`; returns its ns.
  template <class Fn>
  double child(std::int32_t parent, const char* name, Layer& layer,
               std::uint64_t calls, Fn&& fn) {
    const double ns = timed(fn);
    layer.ns += ns;
    layer.calls += calls;
    close_child(parent, name, Clock::now(), ns, calls);
    return ns;
  }

  double replay_query(core::SquidSystem& sys, const keyword::Query& query,
                      overlay::NodeId origin, const core::QueryResult& result,
                      std::int32_t parent) {
    ++queries;
    if (!result.trace) {
      ++missing_traces;
      return 0;
    }
    const obs::Trace& tr = *result.trace;
    double replay = 0;

    sfc::Rect rect;
    replay += child(parent, "keyword.to_rect", to_rect, 1,
                    [&] { rect = sys.space().to_rect(query); });

    // Parent clusters each refine-descend span expanded: a pruned or
    // dispatched child at level L names its parent's prefix at level L-1.
    // Each (span, parent cluster) pair is one refine call.
    const unsigned dims = sys.curve().dims();
    const unsigned bits = sys.curve().bits_per_dim();
    struct Expanded {
      std::int32_t span;
      unsigned level;
      u128 prefix;
      auto operator<=>(const Expanded&) const = default;
    };
    std::vector<Expanded> expanded;
    for (const obs::Span& s : tr.spans) {
      using obs::SpanKind;
      if (s.kind == SpanKind::kRefineDescend) ++refine_spans;
      if (s.kind == SpanKind::kPrune) ++prune_spans;
      if (s.parent < 0 || s.level == 0) continue;
      if (s.kind != SpanKind::kPrune && s.kind != SpanKind::kClusterDispatch)
        continue;
      if (tr.spans[static_cast<std::size_t>(s.parent)].kind !=
          SpanKind::kRefineDescend)
        continue;
      const unsigned shift = (bits - (s.level - 1)) * dims;
      expanded.push_back({s.parent, s.level - 1,
                          shift >= 128 ? u128{0} : s.range_lo >> shift});
    }
    std::sort(expanded.begin(), expanded.end());
    expanded.erase(std::unique(expanded.begin(), expanded.end()),
                   expanded.end());
    std::size_t children = 0;
    replay += child(parent, "sfc.refine", refine, expanded.size(), [&] {
      for (const Expanded& e : expanded)
        children += refiner_.refine({e.prefix, e.level}, rect).size();
    });

    std::vector<const obs::Span*> hops, scans;
    for (const obs::Span& s : tr.spans) {
      if (s.kind == obs::SpanKind::kRouteHop && s.path_end > s.path_begin)
        hops.push_back(&s);
      if (s.kind == obs::SpanKind::kLocalScan) scans.push_back(&s);
    }
    route_spans += hops.size();
    for (const obs::Span* s : hops) route_hops += s->hops;
    std::size_t routed = 0;
    replay += child(parent, "overlay.route", route, hops.size(), [&] {
      for (const obs::Span* s : hops)
        routed += sys.ring().route(tr.nodes[s->path_begin], s->node).hops();
    });

    std::uint64_t visited = 0, matched = 0, expected = 0;
    replay += child(parent, "store.scan", scan, 0, [&] {
      for (const obs::Span* s : scans)
        mirror_.scan(s->range_lo, s->range_hi,
                     [&](u128, const MirrorKey& key) {
                       ++visited;
                       matched += rect.contains(key.point) ? 1 : 0;
                     });
    });
    for (const obs::Span* s : scans) {
      expected += s->keys_scanned;
      keys_matched += s->keys_matched;
    }
    scan.calls += visited; // scan time is reported per key visited
    keys_scanned += expected;
    scan_mismatches += visited != expected ? 1 : 0;

    std::size_t bytes = 0;
    replay += child(parent, "codec.sizing", sizing, result.elements.size(),
                    [&] {
                      for (const core::DataElement& e : result.elements)
                        bytes += core::element_wire_size(e);
                    });
    sink += children + routed + bytes + matched;

    if (queries % kSimEvery == 0) replay_sim(sys, query, origin, result);
    return replay;
  }

  /// Re-run one query through query_async on the benchmark's own engine with
  /// tracing off, timing every Engine::step; the answer must match.
  void replay_sim(core::SquidSystem& sys, const keyword::Query& query,
                  overlay::NodeId origin, const core::QueryResult& expect) {
    sys.set_tracing(false);
    sim::Engine engine;
    core::QueryHandle handle = sys.query_async(query, origin, engine);
    while (!engine.empty()) {
      step.ns += timed([&] { engine.step(); });
      ++step.calls;
    }
    sys.set_tracing(true);
    ++sim_queries;
    if (!handle.ready() ||
        element_digest(handle.result().elements) !=
            element_digest(expect.elements) ||
        stats_digest(handle.result().stats) != stats_digest(expect.stats))
      ++sim_mismatches;
  }

  Clock::time_point epoch_;
  sfc::ClusterRefiner refiner_;
  util::TieredStore<MirrorKey> mirror_;
  std::uint64_t next_op_ = 0;
};

void write_spans(const std::vector<SpanRec>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "squidbench: cannot write " << path << "\n";
    return;
  }
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"op\": %llu, \"span\": %zu, \"parent\": %d, "
                  "\"count\": %llu}}",
                  i ? ",\n" : "", s.name, s.parent < 0 ? 1 : 2, s.start_us,
                  s.dur_us, static_cast<unsigned long long>(s.op), i,
                  s.parent, static_cast<unsigned long long>(s.count));
    out << buf;
  }
  out << "\n]}\n";
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }
double per(double num, std::uint64_t den) {
  return den ? num / static_cast<double>(den) : 0;
}

void print_row(const char* layer, const Layer& l, double op_ns) {
  std::printf("  %-22s %10.2f ms %7.2f%% %10llu calls %10.1f ns/call\n", layer,
              l.ns * 1e-6, 100 * share(l.ns, op_ns),
              static_cast<unsigned long long>(l.calls), l.per_call());
}

} // namespace

std::vector<Metric> traced_run(const std::string& workload, unsigned seconds,
                               std::uint64_t seed, const std::string& trace_path,
                               Log& log, bool& correct) {
  if (!obs::kEnabled) {
    std::cout << "CHECK FAILED: the observability layer is compiled out "
                 "(SQUID_OBS=OFF), so there are no traces to replay\n";
    correct = false;
  }
  // Both passes run the op sequence sized for half the run length: the
  // traced pass costs about twice the untraced one, and per-layer metrics
  // are averages, so half the ops keep the run within its time budget.
  seconds = std::max(1u, seconds / 2);
  // Untraced passes before and after the traced one, each on its own build
  // of the seed: the answers the traced pass must reproduce, and the
  // denominator of obs.trace_overhead (their mean, so warm-up and drift of
  // the host do not land on one side of the ratio).
  const auto untraced = [&] {
    Log plain;
    const std::unique_ptr<Workload> wl = make_workload(workload, seconds);
    wl->setup(seed);
    wl->run(plain, nullptr, static_cast<std::size_t>(-1));
    return plain;
  };
  const Log plain = untraced();
  unsigned shards = 1;
  const TraceStats tr = [&] {
    const std::unique_ptr<Workload> wl = make_workload(workload, seconds);
    wl->setup(seed);
    shards = wl->shards();
    wl->sys().set_tracing(true);
    Tracer t(wl->sys(), Clock::now());
    wl->run(log, &t, static_cast<std::size_t>(-1));
    return TraceStats(std::move(t));
  }();
  const Log after = untraced();
  write_spans(tr.spans, trace_path);

  if (plain.steps != log.steps || after.steps != log.steps) {
    std::cout << "CHECK FAILED: tracing changed an answer or a QueryStats "
                 "field\n";
    correct = false;
  }
  const double untraced_ns = (plain.query_ns + after.query_ns) / 2;
  const auto check = [&](std::uint64_t bad, const char* what) {
    if (bad == 0) return;
    std::cout << "CHECK FAILED: " << bad << " " << what << "\n";
    correct = false;
  };
  check(tr.missing_traces, "queries returned no trace");
  check(tr.scan_mismatches, "scan replays visited a different key count");
  check(tr.sim_mismatches, "query_async replays gave a different answer");
  check(tr.codec_mismatches, "update frames did not round-trip");
  check(tr.route_mismatches, "update route replays took a different path");
  log.attempted += plain.attempted + after.attempted;
  log.failed += plain.failed + after.failed;

  const double qop = tr.query_op_ns;
  const double uop = tr.update_op_ns;
  const double residual_ns = qop - tr.query_replay_ns;

  std::printf("traced split of read time: %llu queries, %.1f ms in the "
              "public calls\n",
              static_cast<unsigned long long>(tr.queries), qop * 1e-6);
  print_row("keyword.to_rect", tr.to_rect, qop);
  print_row("sfc.refine", tr.refine, qop);
  print_row("overlay.route", tr.route, qop);
  print_row("store.scan (per key)", tr.scan, qop);
  print_row("codec.sizing", tr.sizing, qop);
  std::printf("  replays account for %.1f%% of read time; residual "
              "(core runtime, assembly, tracing) %.1f%% = %.2f us/query\n",
              100 * share(tr.query_replay_ns, qop), 100 * share(residual_ns, qop),
              per(residual_ns, tr.queries) * 1e-3);
  // The ROADMAP baseline's gprof split of partial-keyword query() at 1000
  // peers, printed beside the measured one.
  struct Estimate {
    const char* layer;
    double estimate, measured;
  };
  const Estimate estimates[] = {
      {"route", 0.44, share(tr.route.ns, qop)},
      {"scan", 0.25, share(tr.scan.ns, qop)},
      {"bytes", 0.15, share(tr.sizing.ns, qop)}};
  std::printf("  gprof estimate (partial-keyword query() at 1000 peers): "
              "route ~44%% / scan ~25%% / bytes ~15%%\n"
              "  measured here:                                        "
              "route %.0f%% / scan %.0f%% / bytes %.0f%%\n",
              100 * estimates[0].measured, 100 * estimates[1].measured,
              100 * estimates[2].measured);
  for (const Estimate& e : estimates)
    if (std::abs(e.measured - e.estimate) > 0.10)
      std::printf("  differs: %s measured %.0f%% vs estimated %.0f%% "
                  "(%+.0f points)\n",
                  e.layer, 100 * e.measured, 100 * e.estimate,
                  100 * (e.measured - e.estimate));
  if (shards > 1)
    std::printf("  note: replays run on one thread while the public calls "
                "spread over %u shards, so shares of wall time can sum past "
                "100%%\n",
                shards);
  std::printf("traced split of write time: %llu updates, %.1f ms in "
              "apply_updates\n",
              static_cast<unsigned long long>(tr.updates), uop * 1e-6);
  print_row("keyword.encode", tr.encode, uop);
  print_row("sfc.index_of", tr.index_of, uop);
  print_row("overlay.route", tr.update_route, uop);
  print_row("codec.update_encode", tr.frame_encode, uop);
  print_row("codec.update_decode", tr.frame_decode, uop);
  print_row("store.obtain", tr.obtain, uop);
  print_row("store.erase", tr.erase, uop);
  std::printf("  replays account for %.1f%% of write time\n",
              100 * share(tr.update_replay_ns, uop));
  std::printf("sim: %llu queries re-run through query_async, %.2f steps "
              "each, %.1f ns/step\n",
              static_cast<unsigned long long>(tr.sim_queries),
              per(static_cast<double>(tr.step.calls), tr.sim_queries),
              tr.step.per_call());
  std::printf("obs.trace_overhead: traced / untraced read time = %.3f "
              "(untraced passes before and after: %.1f ms, %.1f ms)\n",
              share(qop, untraced_ns), plain.query_ns * 1e-6,
              after.query_ns * 1e-6);
  std::printf("spans: %zu written to %s (replay checksum %llx)\n",
              tr.spans.size(), trace_path.c_str(),
              static_cast<unsigned long long>(tr.sink));

  const double lq = static_cast<double>(plain.queries);
  return {
      {"keyword.to_rect_ns", tr.to_rect.per_call(), "ns"},
      {"keyword.encode_ns", tr.encode.per_call(), "ns"},
      {"sfc.index_of_ns", tr.index_of.per_call(), "ns"},
      {"sfc.refine_ns", tr.refine.per_call(), "ns"},
      {"sfc.refines_per_query", per(static_cast<double>(tr.refine_spans),
                                    tr.queries), "count"},
      {"sfc.prunes_per_query", per(static_cast<double>(tr.prune_spans),
                                   tr.queries), "count"},
      {"sfc.refine_share", share(tr.refine.ns, qop), "ratio"},
      {"overlay.route_ns", tr.route.per_call(), "ns"},
      {"overlay.update_route_ns", tr.update_route.per_call(), "ns"},
      {"overlay.routes_per_query", per(static_cast<double>(tr.route_spans),
                                       tr.queries), "count"},
      {"overlay.hops_per_route", per(static_cast<double>(tr.route_hops),
                                     tr.route_spans), "hops"},
      {"overlay.route_share", share(tr.route.ns, qop), "ratio"},
      {"store.scan_ns_per_key", tr.scan.per_call(), "ns"},
      {"store.keys_scanned_per_query", per(static_cast<double>(tr.keys_scanned),
                                           tr.queries), "count"},
      {"store.match_ratio", share(static_cast<double>(tr.keys_matched),
                                  static_cast<double>(tr.keys_scanned)), "ratio"},
      {"store.scan_share", share(tr.scan.ns, qop), "ratio"},
      {"store.obtain_ns", tr.obtain.per_call(), "ns"},
      {"store.erase_ns", tr.erase.per_call(), "ns"},
      {"store.merges_per_1k_updates",
       1000 * per(static_cast<double>(plain.merges), plain.updates), "count"},
      {"store.merged_keys_per_update",
       per(static_cast<double>(plain.merged_keys), plain.updates), "count"},
      {"codec.element_wire_size_ns", tr.sizing.per_call(), "ns"},
      {"codec.sizing_share", share(tr.sizing.ns, qop), "ratio"},
      {"codec.update_encode_ns", tr.frame_encode.per_call(), "ns"},
      {"codec.update_decode_ns", tr.frame_decode.per_call(), "ns"},
      {"codec.update_frame_bytes", per(static_cast<double>(tr.frame_bytes),
                                       tr.updates), "B"},
      {"sim.step_ns", tr.step.per_call(), "ns"},
      {"sim.steps_per_query", per(static_cast<double>(tr.step.calls),
                                  tr.sim_queries), "count"},
      {"core.query.residual_us", per(residual_ns, tr.queries) * 1e-3, "us"},
      {"core.query.replay_share", share(tr.query_replay_ns, qop), "ratio"},
      {"core.query.routing_nodes", per(static_cast<double>(plain.routing_nodes),
                                       plain.queries), "count"},
      {"core.query.processing_nodes",
       per(static_cast<double>(plain.processing_nodes), plain.queries), "count"},
      {"core.query.data_nodes", per(static_cast<double>(plain.data_nodes),
                                    plain.queries), "count"},
      {"core.query.reply_messages",
       per(static_cast<double>(plain.reply_messages), plain.queries), "count"},
      {"core.update.replay_share", share(tr.update_replay_ns, uop), "ratio"},
      {"parallel.handoffs_per_query", lq > 0 ? plain.handoffs / lq : 0, "count"},
      {"parallel.idle_polls_per_query", lq > 0 ? plain.idle_polls / lq : 0,
       "count"},
      {"obs.trace_overhead", share(qop, untraced_ns), "ratio"},
  };
}

} // namespace squidbench

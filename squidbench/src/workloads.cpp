// The four workloads: keyword Q1/Q2 mixes at paper scale and on a dense
// ring, and the random-waypoint geo world in lockstep and sharded modes.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <thread>

#include <sys/resource.h>

#include "bench.hpp"
#include "squid/obs/metrics.hpp"
#include "squid/util/require.hpp"
#include "squid/workload/corpus.hpp"
#include "squid/workload/geo.hpp"

namespace squidbench {

std::uint64_t mix(std::uint64_t acc, std::uint64_t value) {
  std::uint64_t state = acc ^ (value + 0x9e3779b97f4a7c15ull);
  return splitmix64(state);
}

std::uint64_t name_hash(std::string_view name) {
  // FNV-1a, then a splitmix finalizer so sums of hashes stay well spread.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return splitmix64(h);
}

void NameDigest::add(std::string_view name) { add_hash(name_hash(name)); }

void NameDigest::add_hash(std::uint64_t hash) {
  sum_ += hash;
  ++count_;
}

std::uint64_t NameDigest::value() const { return mix(sum_, count_); }

std::uint64_t name_digest(const std::vector<std::string>& names) {
  NameDigest d;
  for (const auto& n : names) d.add(n);
  return d.value();
}

std::uint64_t element_digest(const std::vector<core::DataElement>& elements) {
  NameDigest d;
  for (const auto& e : elements) d.add(e.name);
  return d.value();
}

std::uint64_t stats_digest(const core::QueryStats& s) {
  std::uint64_t d = 0;
  for (const std::uint64_t v :
       {std::uint64_t{s.matches}, std::uint64_t{s.routing_nodes},
        std::uint64_t{s.processing_nodes}, std::uint64_t{s.data_nodes},
        std::uint64_t{s.messages}, std::uint64_t{s.critical_path_hops},
        std::uint64_t{s.retries}, std::uint64_t{s.failed_clusters},
        s.bytes_shipped, s.reply_messages})
    d = mix(d, v);
  return d;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::uint64_t Workload::fingerprint() const {
  std::uint64_t d = 0;
  for (const overlay::NodeId id : sys_->ring().node_ids())
    d = mix(mix(d, static_cast<std::uint64_t>(id)),
            static_cast<std::uint64_t>(id >> 64));
  sys_->for_each_key([&](u128 index, const sfc::Point&,
                         const std::vector<core::DataElement>& elements) {
    d = mix(mix(d, static_cast<std::uint64_t>(index)),
            element_digest(elements));
  });
  return d;
}

namespace {

/// Fold one query's answer check and counts into the log.
void log_query(Log& log, const core::QueryResult& r, std::uint64_t truth) {
  const std::uint64_t got = element_digest(r.elements);
  ++log.attempted;
  if (got != truth || !r.complete) ++log.failed;
  ++log.queries;
  log.hops.push_back(r.stats.critical_path_hops);
  log.messages += r.stats.messages;
  log.bytes += r.stats.bytes_shipped;
  log.reply_messages += r.stats.reply_messages;
  log.routing_nodes += r.stats.routing_nodes;
  log.processing_nodes += r.stats.processing_nodes;
  log.data_nodes += r.stats.data_nodes;
}

/// Fold one apply_updates run into the log; returns its step digest.
std::uint64_t log_updates(Log& log, const core::UpdateRun& run,
                          const core::SquidSystem& sys,
                          const util::TieredStoreStats& before) {
  std::uint64_t d = 0;
  for (const core::UpdateResult& r : run.results) {
    ++log.attempted;
    if (!r.delivered || !r.applied) ++log.failed;
    log.update_hops += r.hops;
    d = mix(mix(mix(d, r.hops), r.bytes), r.applied ? 1 : 0);
  }
  log.updates += run.results.size();
  log.update_messages += run.messages;
  log.update_bytes += run.bytes;
  log.merges += sys.store_stats().merges - before.merges;
  log.merged_keys += sys.store_stats().merged_keys - before.merged_keys;
  return mix(mix(d, run.messages), run.bytes);
}

core::SquidConfig balanced_config() {
  core::SquidConfig config;
  config.join_samples = 8; // the paper's load-balancing join (3.5)
  return config;
}

// --- Keyword workloads --------------------------------------------------------

/// Brute-force ground truth over the live element set, independent of the
/// curve, overlay and store: candidates are the elements whose first token
/// starts with the query's leading prefix (an exact superset of the
/// matches), each tested with KeywordSpace::matches — the query rectangle
/// containing the element's encoded point — with to_rect hoisted out of the
/// candidate loop and each element encoded once, when it enters the set.
/// Elements are grouped by first token so a prefix selects whole groups.
class KeywordOracle {
public:
  explicit KeywordOracle(const keyword::KeywordSpace& space) : space_(&space) {}

  void insert(const core::DataElement& e) {
    Word& w = words_[std::get<std::string>(e.keys[0])];
    const sfc::Point point = space_->encode(e.keys);
    w.coords.insert(w.coords.end(), point.begin(), point.end());
    w.names.push_back(e.name);
    w.hashes.push_back(name_hash(e.name));
  }

  void erase(const core::DataElement& e) {
    Word& w = words_.at(std::get<std::string>(e.keys[0]));
    const auto it = std::find(w.names.begin(), w.names.end(), e.name);
    SQUID_REQUIRE(it != w.names.end(),
                  "oracle erase of an element it does not hold");
    const auto i = static_cast<std::size_t>(it - w.names.begin());
    const std::size_t dims = space_->dims();
    std::copy(w.coords.end() - static_cast<std::ptrdiff_t>(dims),
              w.coords.end(),
              w.coords.begin() + static_cast<std::ptrdiff_t>(i * dims));
    w.coords.resize(w.coords.size() - dims);
    w.names[i] = std::move(w.names.back());
    w.names.pop_back();
    w.hashes[i] = w.hashes.back();
    w.hashes.pop_back();
  }

  std::uint64_t digest(const keyword::Query& query) const {
    const sfc::Rect rect = space_->to_rect(query);
    const std::size_t dims = rect.dims.size();
    std::string prefix;
    auto it = words_.begin();
    if (const auto* p = std::get_if<keyword::Prefix>(&query.terms[0])) {
      prefix = p->prefix;
      it = words_.lower_bound(prefix);
    }
    NameDigest names;
    for (; it != words_.end() &&
           it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      const Word& w = it->second;
      for (std::size_t j = 0; j < w.hashes.size(); ++j) {
        bool inside = true;
        for (std::size_t d = 0; d < dims && inside; ++d)
          inside = rect.dims[d].contains(w.coords[j * dims + d]);
        if (inside) names.add_hash(w.hashes[j]);
      }
    }
    return names.value();
  }

private:
  /// Every live element whose first token is one word: encoded points
  /// (flattened, dims per element), names, and name hashes.
  struct Word {
    std::vector<std::uint64_t> coords;
    std::vector<std::string> names;
    std::vector<std::uint64_t> hashes;
  };
  const keyword::KeywordSpace* space_;
  std::map<std::string, Word> words_;
};

/// The paper's Q1/Q2 mix over a 2-d keyword space: a partial keyword with a
/// wildcard elsewhere, or two terms with at least one partial; Zipf-ranked
/// words, 3-4 character prefixes, a random origin per query. Interleaved
/// with the reads, batches of routed retract+publish pairs replace
/// documents, so reads run against a store with live delta and tombstone
/// tiers and update timing is spread over the whole run.
class FlexWorkload : public Workload {
public:
  FlexWorkload(std::string name, std::size_t nodes, std::size_t keys,
               std::size_t queries, std::size_t updates)
      : name_(std::move(name)), nodes_(nodes), keys_(keys), queries_(queries),
        batches_(std::max<std::size_t>(1, updates / kBatch)) {}

  std::string describe() const override {
    return name_ + ": " + std::to_string(nodes_) + " peers, " +
           std::to_string(keys_) + " keys, " + std::to_string(queries_) +
           " Q1/Q2 queries interleaved with " + std::to_string(batches_) +
           " batches of " + std::to_string(kBatch) +
           " routed updates, one closed-loop client";
  }

  int setup_reps() const override { return 3; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    sys_.reset(); // one system alive at a time keeps peak_rss_mb honest
    // The vocabulary is the workload's fixed language; documents, peers
    // and ops come from the seed.
    Rng language(kLanguageSeed);
    corpus_ = std::make_unique<workload::KeywordCorpus>(2, kVocabulary, kZipf,
                                                        language);
    Rng rng(seed);
    sys_ = std::make_unique<core::SquidSystem>(corpus_->make_space(),
                                               balanced_config());
    // Draw documents until the corpus holds `keys_` distinct keys.
    live_.clear();
    std::set<u128> distinct;
    while (distinct.size() < keys_) {
      live_.push_back(corpus_->make_element(rng));
      distinct.insert(sys_->curve().index_of(
          sys_->space().encode(live_.back().keys)));
    }
    sys_->publish_batch(live_);
    sys_->build_network(1, rng);
    for (std::size_t i = 1; i < nodes_; ++i) (void)sys_->join_node(rng);
    for (int sweep = 0; sweep < 6; ++sweep)
      (void)sys_->runtime_balance_sweep(1.3);
    sys_->repair_routing();
  }

  std::size_t probe_steps() const override {
    return 2 * (1 + queries_per_batch()); // two batches and their queries
  }

  std::uint64_t stream_digest(std::uint64_t seed) const override {
    Rng language(kLanguageSeed);
    const workload::KeywordCorpus corpus(2, kVocabulary, kZipf, language);
    Rng rng(seed ^ kQuerySalt);
    std::uint64_t d = 0;
    for (const keyword::Query& q : make_queries(corpus, queries_, rng))
      d = mix(d, std::hash<std::string>{}(keyword::to_string(q)));
    return mix(d, rng()); // the first origin draw
  }

  void run(Log& log, Hooks* hooks, std::size_t step_limit) override {
    // Queries come from one stream, update batches from another, so the
    // query stream is fixed by the seed alone (stream_digest replays it).
    Rng qrng(seed_ ^ kQuerySalt);
    Rng urng(seed_ ^ kUpdateSalt);
    const std::vector<keyword::Query> queries =
        make_queries(*corpus_, queries_, qrng);
    KeywordOracle oracle(sys_->space());
    for (const auto& e : live_) oracle.insert(e);
    std::vector<core::DataElement> live = live_;

    std::size_t step = 0, batches = 0;
    const std::size_t per_batch = queries_per_batch();
    for (std::size_t q = 0; q < queries_; ++q) {
      if (q % per_batch == 0 && batches < batches_) {
        ++batches;
        if (step++ == step_limit) return;
        std::vector<core::UpdateOp> ops;
        for (std::size_t k = 0; k < kBatch / 2; ++k) {
          const std::size_t victim = urng.below(live.size());
          ops.push_back(core::UpdateOp::retract(
              live[victim], sys_->ring().random_node(urng)));
          oracle.erase(live[victim]);
          live[victim] = corpus_->make_element(urng);
          oracle.insert(live[victim]);
          ops.push_back(core::UpdateOp::publish(
              live[victim], sys_->ring().random_node(urng)));
        }
        const util::TieredStoreStats before = sys_->store_stats();
        const auto t0 = Clock::now();
        const core::UpdateRun result = core::apply_updates(*sys_, ops);
        const double ns = ns_between(t0, Clock::now());
        log.update_ns += ns;
        log.steps.push_back(log_updates(log, result, *sys_, before));
        if (hooks) hooks->after_updates(*sys_, ops, result, t0, ns);
      }
      if (step++ == step_limit) return;
      const keyword::Query& query = queries[q];
      const overlay::NodeId origin = sys_->ring().random_node(qrng);
      const auto t0 = Clock::now();
      const core::QueryResult r = sys_->query(query, origin);
      const double ns = ns_between(t0, Clock::now());
      log.latency_ns.push_back(ns);
      log.query_ns += ns;
      log_query(log, r, oracle.digest(query));
      log.steps.push_back(
          mix(element_digest(r.elements), stats_digest(r.stats)));
      if (hooks) hooks->after_query(*sys_, query, origin, r, t0, ns);
    }
  }

private:
  static constexpr std::size_t kVocabulary = 2500;
  static constexpr double kZipf = 0.8;
  static constexpr std::size_t kBatch = 512;
  static constexpr std::uint64_t kLanguageSeed = 2003;
  static constexpr std::uint64_t kQuerySalt = 0x71756572790001ull;
  static constexpr std::uint64_t kUpdateSalt = 0x7570646174650001ull;

  std::size_t queries_per_batch() const {
    return std::max<std::size_t>(1, queries_ / batches_);
  }

  /// The query stream, stratified so every seed draws the same mix: the
  /// i-th query's leading word takes the Zipf rank at quantile
  /// (i + jitter) / n, and consecutive quantiles cycle through the shapes —
  /// two Q1 for each Q2, 3/4-character prefixes, partial/whole second terms
  /// — so each rank band carries every shape. (With a 1:1 mix the median
  /// latency would sit on the gap between cheap Q2 and costly Q1 answers.)
  /// Second-term ranks are stratified the same way; the seed then shuffles
  /// the order and the pairings.
  static std::vector<keyword::Query> make_queries(
      const workload::KeywordCorpus& corpus, std::size_t n, Rng& rng) {
    static const std::vector<double> cdf = [] {
      std::vector<double> c(kVocabulary);
      double sum = 0;
      for (std::size_t k = 0; k < kVocabulary; ++k)
        c[k] = sum += std::pow(static_cast<double>(k + 1), -kZipf);
      for (double& v : c) v /= sum;
      return c;
    }();
    const auto quantiles = [&] {
      std::vector<std::size_t> ranks(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) + rng.uniform()) /
                         static_cast<double>(n);
        ranks[i] = std::min<std::size_t>(
            kVocabulary - 1,
            static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
      }
      return ranks;
    };
    const std::vector<std::size_t> first = quantiles();
    std::vector<std::size_t> second = quantiles();
    rng.shuffle(second);
    std::vector<keyword::Query> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned prefix = 3 + static_cast<unsigned>((i / 3) % 2);
      if (i % 3 != 2)
        out.push_back(corpus.q1(first[i], /*partial=*/true, prefix));
      else
        out.push_back(corpus.q2(first[i], second[i],
                                /*partial_b=*/(i / 6) % 2 == 0, prefix));
    }
    rng.shuffle(out);
    return out;
  }

  std::string name_;
  std::size_t nodes_, keys_, queries_, batches_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<workload::KeywordCorpus> corpus_;
  std::vector<core::DataElement> live_; ///< published corpus after setup
};

// --- Geo workloads ------------------------------------------------------------

/// The random-waypoint world: every tick moves every object (a retract and
/// a publish each, one apply_updates call), then issues a fixed number of
/// 64x64 bounding-box reads from random origins. `parallel` runs the ticks
/// in kParallel mode and the reads as query_parallel batches.
class GeoWorkload : public Workload {
public:
  GeoWorkload(std::string name, bool parallel, std::size_t ticks)
      : name_(std::move(name)), parallel_(parallel), ticks_(ticks),
        shards_(std::max(1u, std::min(4u, std::thread::hardware_concurrency()))) {}

  std::string describe() const override {
    return name_ + ": " + std::to_string(kNodes) + " peers, " +
           std::to_string(kObjects) + " moving objects, " +
           std::to_string(ticks_) + " ticks x (" +
           std::to_string(2 * kObjects) + " updates + " +
           std::to_string(kReads) + " bbox reads)" +
           (parallel_ ? ", kParallel S=" + std::to_string(shards_) +
                            ", reads in query_parallel batches of " +
                            std::to_string(kReadBatch)
                      : ", lockstep, one closed-loop client");
  }

  unsigned shards() const override { return parallel_ ? shards_ : 1; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    sys_.reset(); // one system alive at a time keeps peak_rss_mb honest
    world_ = workload::GeoConfig{};
    world_.objects = kObjects;
    SQUID_REQUIRE(world_.width == kGrid && world_.height == kGrid &&
                      (std::uint64_t{1} << world_.bits) == kGrid,
                  "bbox alignment assumes one codec bucket per world unit");
    Rng rng(seed);
    objects_ = std::make_unique<workload::GeoMovingObjectsWorkload>(world_, rng);
    sys_ = std::make_unique<core::SquidSystem>(objects_->make_space(),
                                               balanced_config());
    sys_->publish_batch(objects_->elements());
    sys_->build_network(kNodes, rng);
  }

  int setup_reps() const override { return 25; } // ~20 ms builds

  std::size_t probe_steps() const override {
    // The first tick: its update batch and its reads.
    return 1 + (parallel_ ? kReads / kReadBatch : kReads);
  }

  std::uint64_t stream_digest(std::uint64_t seed) const override {
    workload::GeoConfig world;
    world.objects = kObjects;
    Rng rng(seed);
    const workload::GeoMovingObjectsWorkload objects(world, rng);
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < 64; ++i)
      d = mix(d, std::hash<std::string>{}(
                     keyword::to_string(objects.element_of(i).keys[0]) + "," +
                     keyword::to_string(objects.element_of(i).keys[1])));
    Rng ops(seed ^ kOpSalt);
    for (int i = 0; i < 64; ++i) d = mix(d, ops());
    return d;
  }

  void run(Log& log, Hooks* hooks, std::size_t step_limit) override {
    Rng rng(seed_ ^ kOpSalt);
    core::UpdateOptions opts;
    if (parallel_) {
      opts.mode = core::DeliveryMode::kParallel;
      opts.shards = shards_;
    }
    std::size_t step = 0;
    for (std::size_t t = 0; t < ticks_; ++t) {
      if (step++ == step_limit) return;
      std::vector<core::UpdateOp> ops;
      ops.reserve(2 * objects_->size());
      for (std::size_t i = 0; i < objects_->size(); ++i)
        objects_->step(i, sys_->ring().random_node(rng), ops, rng);
      const util::TieredStoreStats before = sys_->store_stats();
      const auto t0 = Clock::now();
      const core::UpdateRun result = core::apply_updates(*sys_, ops, opts);
      const double ns = ns_between(t0, Clock::now());
      log.update_ns += ns;
      log.steps.push_back(log_updates(log, result, *sys_, before));
      if (hooks) hooks->after_updates(*sys_, ops, result, t0, ns);

      const std::vector<Read> reads = make_reads(rng);
      if (!parallel_) {
        for (const Read& read : reads) {
          if (step++ == step_limit) return;
          const auto q0 = Clock::now();
          const core::QueryResult r = sys_->query(read.query, read.origin);
          const double qns = ns_between(q0, Clock::now());
          log.latency_ns.push_back(qns);
          log.query_ns += qns;
          log_query(log, r, read.truth);
          log.steps.push_back(
              mix(element_digest(r.elements), stats_digest(r.stats)));
          if (hooks) hooks->after_query(*sys_, read.query, read.origin, r, q0,
                                     qns);
        }
        continue;
      }
      obs::Registry& registry = obs::Registry::global();
      obs::Counter& handoffs = registry.counter("squid.runtime.shard.handoffs");
      obs::Counter& idle = registry.counter("squid.runtime.shard.idle_polls");
      core::ParallelOptions popts;
      popts.shards = shards_;
      for (std::size_t b = 0; b < reads.size(); b += kReadBatch) {
        if (step++ == step_limit) return;
        std::vector<core::ParallelQuerySpec> specs;
        for (std::size_t k = b; k < std::min(reads.size(), b + kReadBatch); ++k)
          specs.push_back({reads[k].query, reads[k].origin, std::nullopt});
        const std::uint64_t h0 = handoffs.value(), i0 = idle.value();
        const auto q0 = Clock::now();
        const core::ParallelRun prun = sys_->query_parallel(specs, popts);
        const double qns = ns_between(q0, Clock::now());
        log.handoffs += handoffs.value() - h0;
        log.idle_polls += idle.value() - i0;
        log.latency_ns.push_back(qns);
        log.query_ns += qns;
        std::uint64_t d = 0;
        for (std::size_t k = 0; k < prun.results.size(); ++k) {
          const core::QueryResult& r = prun.results[k];
          log_query(log, r, reads[b + k].truth);
          d = mix(d, mix(element_digest(r.elements), stats_digest(r.stats)));
        }
        log.steps.push_back(d);
        if (hooks) hooks->after_query_batch(*sys_, specs, prun, q0, qns);
      }
    }
  }

private:
  struct Read {
    keyword::Query query;
    overlay::NodeId origin;
    std::uint64_t truth; ///< name digest of the objects inside the box
  };

  /// One tick's bbox reads, each with its ground truth: inside()'s
  /// closed-box predicate over the workload's exact positions, evaluated
  /// through an x-sorted copy (inside() scans every object per call);
  /// inside() itself checks the tick's first read.
  std::vector<Read> make_reads(Rng& rng) const {
    struct Position {
      double x, y;
      std::uint64_t name;
    };
    std::vector<Position> by_x;
    by_x.reserve(objects_->size());
    for (std::size_t i = 0; i < objects_->size(); ++i) {
      const auto& o = objects_->object(i);
      by_x.push_back({o.x, o.y, name_hash(o.name)});
    }
    std::sort(by_x.begin(), by_x.end(),
              [](const Position& a, const Position& b) { return a.x < b.x; });
    const auto truth = [&](double xlo, double xhi, double ylo, double yhi) {
      NameDigest d;
      auto it = std::lower_bound(
          by_x.begin(), by_x.end(), xlo,
          [](const Position& p, double v) { return p.x < v; });
      for (; it != by_x.end() && it->x <= xhi; ++it)
        if (it->y >= ylo && it->y <= yhi) d.add_hash(it->name);
      return d.value();
    };
    std::vector<Read> reads;
    for (std::size_t q = 0; q < kReads; ++q) {
      // Boxes cover whole codec buckets (one unit wide: 2^10 buckets over
      // 1024 units), [x, x + 64) on each axis, so the index's
      // bucket-resolution answer and the exact ground truth agree.
      const auto x = static_cast<double>(rng.below(kGrid - kBox + 1));
      const auto y = static_cast<double>(rng.below(kGrid - kBox + 1));
      const double xhi = std::nextafter(x + kBox, 0.0);
      const double yhi = std::nextafter(y + kBox, 0.0);
      const overlay::NodeId origin = sys_->ring().random_node(rng);
      reads.push_back({workload::bbox_query(x, xhi, y, yhi), origin,
                       truth(x, xhi, y, yhi)});
      if (q == 0)
        SQUID_REQUIRE(reads[0].truth ==
                          name_digest(objects_->inside(x, xhi, y, yhi)),
                      "sorted ground truth disagrees with inside()");
    }
    return reads;
  }

  static constexpr std::size_t kNodes = 1000;
  static constexpr std::size_t kObjects = 20000;
  static constexpr std::size_t kReads = 4096;   ///< bbox reads per tick
  /// Reads per query_parallel call: large enough to amortize the shard
  /// threads each call starts, small enough for 1000+ latency samples.
  static constexpr std::size_t kReadBatch = 64;
  static constexpr std::uint64_t kGrid = 1024; ///< world extent = buckets
  static constexpr std::uint64_t kBox = 64;     ///< bbox side, in buckets
  static constexpr std::uint64_t kOpSalt = 0x67656f0000000001ull;

  std::string name_;
  bool parallel_;
  std::size_t ticks_;
  unsigned shards_;
  std::uint64_t seed_ = 0;
  workload::GeoConfig world_;
  std::unique_ptr<workload::GeoMovingObjectsWorkload> objects_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned seconds) {
  // Op counts are fixed per --seconds (never a time-bounded loop), sized so
  // the measured calls take roughly `seconds` on a 4-core x86 host.
  const auto per_s = [seconds](double rate) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(rate * seconds)));
  };
  if (name == "flex_paper")
    return std::make_unique<FlexWorkload>(name, 5400, 100000, per_s(300),
                                          per_s(2048));
  if (name == "flex_dense")
    return std::make_unique<FlexWorkload>(name, 128, 100000, per_s(1200),
                                          per_s(2048));
  // 17 ticks at 20 s: 1088 query_parallel batches on geo_parallel, enough
  // for a p99 with 10 samples beyond it.
  if (name == "geo_mixed")
    return std::make_unique<GeoWorkload>(name, false, per_s(0.85));
  if (name == "geo_parallel")
    return std::make_unique<GeoWorkload>(name, true, per_s(0.85));
  return nullptr;
}

} // namespace squidbench

// squidbench: one command, four workloads, end-to-end metrics by default and
// the per-layer split with --trace 1.
//
//   squidbench --workload <flex_paper|flex_dense|geo_mixed|geo_parallel>
//              --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//              [--git-sha SHA] [--source-digest HEX]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; everything before it is a human summary plus one
// "provenance {...}" line. squidbench/run.py builds the binary and runs it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "squid/obs/metrics.hpp"

namespace squidbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned seconds = 10;
  bool trace = false;
  std::string trace_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "squidbench: " << why
            << "\nusage: squidbench --workload <flex_paper|flex_dense|"
               "geo_mixed|geo_parallel> --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--git-sha SHA] [--source-digest HEX]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-dir") {
        a.trace_dir = value;
      } else if (flag == "--git-sha") {
        a.git_sha = value;
      } else if (flag == "--source-digest") {
        a.source_digest = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.seconds < 1 || a.seconds > 60) usage("--seconds must be 1..60");
  return a;
}

/// Type-7 (linear interpolation) percentile of a sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Percentile of integer counts read as grouped data: each integer value v
/// stands for the interval [v - 0.5, v + 0.5) and the quantile interpolates
/// inside the interval it falls in. It equals v when every sample is v, and
/// it moves with the distribution instead of jumping a whole hop when one
/// sample crosses the median.
double grouped_percentile(std::vector<std::uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = p * static_cast<double>(v.size());
  std::size_t below = 0;
  while (below < v.size()) {
    const auto end = static_cast<std::size_t>(
        std::upper_bound(v.begin() + static_cast<std::ptrdiff_t>(below),
                         v.end(), v[below]) -
        v.begin());
    if (static_cast<double>(end) >= target || end == v.size())
      return static_cast<double>(v[below]) - 0.5 +
             (target - static_cast<double>(below)) /
                 static_cast<double>(end - below);
    below = end;
  }
  return static_cast<double>(v.back());
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Single-threaded workloads run pinned to one CPU, the highest one this
/// process may use: on shared virtual machines an unpinned thread drifts
/// between vCPUs whose speed differs from run to run. Returns the CPU, or
/// -1 when the workload is multi-threaded or pinning is unavailable.
int pin_single_threaded(unsigned shards) {
  if (shards > 1) return -1;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

void print_provenance(const Args& a, unsigned shards, int pinned_cpu) {
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %u, "
      "\"trace\": %d, \"git_sha\": \"%s\", \"source_sha256\": \"%s\", "
      "\"nproc\": %u, \"build_type\": \"%s\", \"squid_obs\": %s, "
      "\"shards\": %u, \"pinned_cpu\": %d}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.git_sha.c_str(), a.source_digest.c_str(),
      std::thread::hardware_concurrency(), SQUIDBENCH_BUILD_TYPE,
      obs::kEnabled ? "true" : "false", shards, pinned_cpu);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int end_to_end(const Args& a) {
  std::unique_ptr<Workload> wl = make_workload(a.workload, a.seconds);
  std::cout << "workload " << wl->describe() << "\n";
  print_provenance(a, wl->shards(), pin_single_threaded(wl->shards()));
  bool correct = true;

  // The seed reaches the op stream: the same seed regenerates it, another
  // seed changes it.
  const std::uint64_t stream = wl->stream_digest(a.seed);
  if (stream != wl->stream_digest(a.seed) ||
      stream == wl->stream_digest(a.seed + 1)) {
    std::cout << "CHECK FAILED: op stream does not follow --seed\n";
    correct = false;
  }

  // Set up several times; the first build also replays the opening steps
  // of the op sequence as a determinism probe, the last one is measured.
  const int setups = wl->setup_reps();
  std::vector<double> setup_s;
  std::uint64_t fingerprint = 0;
  Log probe;
  const auto phase0 = Clock::now();
  double probe_s = 0;
  for (int rep = 0; rep < setups; ++rep) {
    const auto t0 = Clock::now();
    wl->setup(a.seed);
    setup_s.push_back(ns_between(t0, Clock::now()) * 1e-9);
    const std::uint64_t f = wl->fingerprint();
    if (rep == 0) {
      fingerprint = f;
      const auto p0 = Clock::now();
      wl->run(probe, nullptr, wl->probe_steps());
      probe_s = ns_between(p0, Clock::now()) * 1e-9;
    } else if (f != fingerprint) {
      std::cout << "CHECK FAILED: two builds from one seed differ\n";
      correct = false;
    }
  }
  Log log;
  const auto run0 = Clock::now();
  wl->run(log, nullptr, static_cast<std::size_t>(-1));
  const double run_s = ns_between(run0, Clock::now()) * 1e-9;
  std::printf("phases: setups+probe %.2f s (probe %.2f s), op sequence "
              "%.2f s, of which timed calls %.2f s\n",
              ns_between(phase0, run0) * 1e-9, probe_s, run_s,
              (log.query_ns + log.update_ns) * 1e-9);
  if (probe.steps.size() > log.steps.size() ||
      !std::equal(probe.steps.begin(), probe.steps.end(), log.steps.begin())) {
    std::cout << "CHECK FAILED: replay on an independent build of the same "
                 "seed gave different answers or counts\n";
    correct = false;
  }
  if (log.failed > 0) correct = false;

  const double q = static_cast<double>(log.queries);
  const double u = static_cast<double>(log.updates);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setup_s), "s"},
      {"query_qps", ratio(q, log.query_ns * 1e-9), "1/s"},
      {"query_p50_us", percentile(log.latency_ns, 0.50) * 1e-3, "us"},
      {"query_p99_us", percentile(log.latency_ns, 0.99) * 1e-3, "us"},
      {"update_ops_per_s", ratio(u, log.update_ns * 1e-9), "1/s"},
      {"msgs_per_query", ratio(static_cast<double>(log.messages), q), "count"},
      {"bytes_per_query", ratio(static_cast<double>(log.bytes), q), "B"},
      {"hops_p50", grouped_percentile(log.hops, 0.50), "hops"},
      {"hops_p99", grouped_percentile(log.hops, 0.99), "hops"},
      {"msgs_per_update", ratio(static_cast<double>(log.update_messages), u),
       "count"},
      {"bytes_per_update", ratio(static_cast<double>(log.update_bytes), u),
       "B"},
      {"hops_per_update", ratio(static_cast<double>(log.update_hops), u),
       "hops"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  std::printf("setup: %d builds, median %.3f s (min %.3f, max %.3f)\n",
              setups, median(setup_s),
              *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  const double beyond = 0.01 * static_cast<double>(log.latency_ns.size());
  std::printf("latency samples: %zu (p99 leaves %.1f beyond it%s)\n",
              log.latency_ns.size(), beyond,
              beyond < 10 ? "; too few for a p99, raise --seconds" : "");
  std::printf("error_rate: %llu / %llu = %.6g\n",
              static_cast<unsigned long long>(log.failed),
              static_cast<unsigned long long>(log.attempted),
              ratio(static_cast<double>(log.failed),
                    static_cast<double>(log.attempted)));
  std::uint64_t run_digest = 0;
  for (const std::uint64_t s : log.steps) run_digest = mix(run_digest, s);
  std::printf("answer+count digest: %016llx over %zu steps\n",
              static_cast<unsigned long long>(run_digest), log.steps.size());
  for (const Metric& m : metrics)
    std::printf("  %-18s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_result(correct, log.attempted, log.failed, metrics);
  return 0;
}

int traced(const Args& a) {
  const std::unique_ptr<Workload> wl = make_workload(a.workload, a.seconds);
  std::cout << "workload " << wl->describe() << "\n";
  print_provenance(a, wl->shards(), pin_single_threaded(wl->shards()));
  bool correct = true;
  Log log;
  const std::string path = a.trace_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".trace.json";
  const std::vector<Metric> metrics =
      traced_run(a.workload, a.seconds, a.seed, path, log, correct);
  if (log.failed > 0) correct = false;
  print_result(correct, log.attempted, log.failed, metrics);
  return 0;
}

} // namespace
} // namespace squidbench

int main(int argc, char** argv) {
  using namespace squidbench;
  const Args args = parse(argc, argv);
#ifdef NDEBUG
  const bool optimized = std::strcmp(SQUIDBENCH_BUILD_TYPE, "Release") == 0;
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::cerr << "squidbench: refusing to report timings from a '"
              << SQUIDBENCH_BUILD_TYPE
              << "' build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (!make_workload(args.workload, args.seconds))
    usage(("unknown workload " + args.workload).c_str());
  try {
    return args.trace ? traced(args) : end_to_end(args);
  } catch (const std::exception& e) {
    std::cerr << "squidbench: " << e.what() << "\n";
    return 1;
  }
}

// The one fan-out loop behind query_parallel (query_engine.cpp) and the
// kParallel update plane (update_plane.cpp).

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace squid::core {

/// Run `fn(k)` once for every k in [0, n) on up to `workers` threads, the
/// caller's included. Each thread takes the next index from a shared
/// counter, so a slow item never stalls the rest. `fn` must only write
/// state private to item k. The first exception — thrown by any `fn`, or
/// by starting a thread — stops the hand-out and is rethrown on the caller
/// after every started thread joined.
template <class Fn>
void for_each_index(unsigned workers, std::size_t n, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto fail = [&](std::exception_ptr e) {
    const std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::move(e);
    next.store(n, std::memory_order_relaxed);
  };
  auto drain = [&] {
    for (std::size_t k;
         (k = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      try {
        fn(k);
      } catch (...) {
        fail(std::current_exception());
      }
    }
  };
  const std::size_t threads = std::min<std::size_t>(std::max(1u, workers), n);
  std::vector<std::thread> helpers;
  try {
    for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain);
  } catch (...) {
    fail(std::current_exception());
  }
  drain();
  for (std::thread& helper : helpers) helper.join();
  if (error) std::rethrow_exception(error);
}

} // namespace squid::core

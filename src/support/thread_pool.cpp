#include "support/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace luis::support {

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto claim = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
      fn(i);
  };
  std::vector<std::thread> workers(
      std::min(static_cast<std::size_t>(threads), n) - 1);
  for (std::thread& w : workers) w = std::thread(claim);
  claim();
  for (std::thread& w : workers) w.join();
}

} // namespace luis::support

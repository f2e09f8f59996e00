// Parallel loop for CPU-bound batch jobs (the sweep driver).
//
// Deliberately minimal: each call spawns its workers, hands out indices
// from one atomic counter and joins them. The body must not throw — the
// LUIS failure path is LUIS_FATAL/abort, and sweep jobs record their own
// error state instead of unwinding across threads.
#pragma once

#include <cstddef>
#include <functional>

namespace luis::support {

/// Runs `fn(i)` for i in [0, n). With `threads` <= 1 the loop runs inline
/// on the calling thread in index order — the bit-exact serial reference
/// path the sweep determinism check compares against. Otherwise
/// min(threads, n) threads claim the indices in increasing order, each
/// running whichever index it claims next, so `fn` must only touch state
/// owned by its own index (or thread-safe shared state).
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

} // namespace luis::support

// Parallel loop for CPU-bound batch jobs (the sweep driver).
//
// Deliberately minimal: each call spawns its workers, hands out indices
// from one atomic counter, claims indices on the calling thread too, and
// joins the workers. The body must not throw — the LUIS failure path is
// LUIS_FATAL/abort, and sweep jobs record their own error state instead of
// unwinding across threads.
#pragma once

#include <cstddef>
#include <functional>

namespace luis::support {

/// Runs `fn(i)` for i in [0, n). With `threads` <= 1 the loop runs inline
/// on the calling thread in index order — the bit-exact serial reference
/// path the sweep determinism check compares against. Otherwise the
/// calling thread and min(threads, n) - 1 spawned workers claim the
/// indices in increasing order, each running whichever index it claims
/// next, so a call never runs on more than `threads` threads and `fn` must
/// only touch state owned by its own index (or thread-safe shared state).
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& fn);

} // namespace luis::support

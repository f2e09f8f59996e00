// Host platform characterization — the measurement procedure of §IV-C.
//
// Measures the execution time of 128-iteration blocks of each elementary
// operation (add/sub/mul/div/rem) in each native type class (int32 for
// fixed point, float, double) and of every cross-class cast, using
// clock_gettime(CLOCK_PROCESS_CPUTIME_ID) exactly as the paper does on the
// Linux machines. The resulting table is normalized to the fastest
// operation. The benchmark only needs to run once per target and is
// independent of the program being tuned.
#pragma once

#include "platform/optime.hpp"

namespace luis::platform {

struct MicrobenchOptions {
  /// Timed blocks of 128 iterations (the paper's block size) per
  /// operation; the minimum over blocks is used, which rejects scheduler
  /// noise.
  int blocks = 2000;
};

/// Characterizes the machine this process runs on. Returns a normalized
/// OpTimeTable with the same (op, type) vocabulary as Table II.
OpTimeTable run_microbenchmark(const MicrobenchOptions& options = {});

} // namespace luis::platform

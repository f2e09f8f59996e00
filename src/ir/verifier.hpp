// IR structural verifier.
//
// Checks the SSA well-formedness invariants the rest of the stack relies
// on: array headers (positive dimensions, a bounded element count, an
// ordered range annotation), block termination, phi/predecessor
// agreement, operand typing, and def-dominates-use (via an iterative
// dominator computation). Returns all violations found rather than
// stopping at the first one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/function.hpp"

namespace luis::ir {

/// The largest element count an array may declare: far above every
/// bundled kernel (the largest, heat-3d's @A at DatasetSize::Medium, has
/// 64,000 elements), yet small enough that running a verified function
/// never asks for more than 128 MiB per array.
constexpr std::int64_t kMaxArrayElements = std::int64_t{1} << 24;

struct VerifyResult {
  std::vector<std::string> errors;
  bool ok() const { return errors.empty(); }
  std::string message() const;
};

VerifyResult verify(const Function& function);

/// Immediate dominator computation (Cooper-Harvey-Kennedy iterative scheme).
/// Returns block -> immediate dominator (entry maps to itself). Unreachable
/// blocks are absent from the map.
std::map<const BasicBlock*, const BasicBlock*> compute_dominators(const Function& f);

/// True if `a` dominates `b` under the given dominator tree.
bool dominates(const std::map<const BasicBlock*, const BasicBlock*>& idom,
               const BasicBlock* a, const BasicBlock* b);

/// One use of a value: operand `operand_index` of `user` references it.
struct Use {
  const Instruction* user = nullptr;
  std::size_t operand_index = 0;
};

/// Def -> uses over every operand reference in `f`, in program order — the
/// use walk the verifier performs for its dominance check, exposed for the
/// analysis passes (dead-cast detection, cast-chain pattern matching).
std::map<const Value*, std::vector<Use>> compute_uses(const Function& f);

} // namespace luis::ir

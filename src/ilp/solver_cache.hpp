// Thread-safe memoization of MILP solves keyed by the exact problem.
//
// The cache lets a batch driver (the sweep orchestrator, repeated
// determinism checks, preset re-runs) skip branch & bound entirely when it
// meets a problem it has already solved. Correctness rests on the key
// being exact: every number of the model, the objective and the
// result-affecting solver options enters it as its object bytes, and
// every list with its length, in model order, so two keys are equal
// exactly when every value is bit-identical. The solver is deterministic,
// so a hit returns exactly what a fresh solve would, and it can never
// change what a sweep computes (it only skips recomputing it).
// Reordering-insensitive keys would trade that guarantee away.
//
// A model's structure (variables, bounds and rows) is interned once per
// cache to a small id. A result key is that id, the objective and the
// options; the basis pool is per-structure state under the same id.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace luis::ilp {

struct BranchAndBoundOptions;

class SolverCache {
public:
  struct Stats {
    long lookups = 0;
    long hits = 0;
    long insertions = 0;
    double hit_rate() const {
      return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
    }
  };

  /// The id of `model`'s structure: its variables (kind, bounds) and rows
  /// (sense, rhs, constant, terms), objective-free. Two models get the
  /// same id exactly when these are bit-identical in the same order,
  /// which is when a simplex basis from one warm-starts the other (sweep
  /// presets solve one model under different objectives).
  std::size_t structure(const Model& model);

  /// The result key of solving structure `structure` under `objective`
  /// and the result-affecting fields of `options`.
  static std::string key(std::size_t structure, const Objective& objective,
                         const BranchAndBoundOptions& options);

  /// Returns the cached solution for `key`, if any. Counts a lookup.
  std::optional<Solution> lookup(const std::string& key);

  /// Stores `solution` under `key`. Duplicate keys keep the first entry so
  /// concurrent insert races cannot flip which solution later hits return
  /// (both racers computed identical solutions anyway — see the header
  /// comment — but first-wins makes that independent of timing).
  void insert(const std::string& key, const Solution& solution);

  /// Basis pool: the revised-simplex root basis of a past solve of the
  /// structure. Unlike the results this is last-wins — a basis is a hint,
  /// not a result, and the most recent neighbor is the best available
  /// seed; an empty basis is not stored. Callers that need
  /// bit-reproducible results must only consult the pool from a
  /// deterministic solve order (see BranchAndBoundOptions::share_basis).
  std::optional<Basis> lookup_basis(std::size_t structure);
  void store_basis(std::size_t structure, const Basis& basis);

  Stats stats() const;

private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::size_t> structures_;
  std::vector<Basis> bases_; ///< per structure id; empty = none pooled
  std::unordered_map<std::string, Solution> results_;
  Stats stats_;
};

} // namespace luis::ilp

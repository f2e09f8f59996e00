// Thread-safe memoization of MILP solves keyed by the canonical problem.
//
// The cache lets a batch driver (the sweep orchestrator, repeated
// determinism checks, preset re-runs) skip branch & bound entirely when it
// meets a problem it has already solved. Correctness rests on the key being
// a faithful canonicalization: two (model, objective) pairs share a key
// only if they are the same optimization problem solved under the same
// result-affecting solver options. The canonical form deliberately
// preserves variable and constraint order — the solver is deterministic,
// so order-identical models produce bit-identical solutions, and a cache
// hit can never change what a sweep computes (it only skips recomputing
// it). Reordering-insensitive keys would trade that guarantee away.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ilp/model.hpp"
#include "ilp/simplex.hpp"

namespace luis::ilp {

struct BranchAndBoundOptions;

/// Serializes the objective, the model and the result-affecting solver
/// options into a canonical string: order-preserving, every number in its
/// shortest round-trip form (std::to_chars), so distinct values render
/// distinctly. Equal strings imply identical solves.
std::string canonical_model_key(const Model& model, const Objective& objective,
                                const BranchAndBoundOptions& options);

/// The model alone: variables, bounds and constraints. Two models share a
/// structural key exactly when they describe the same feasible region in
/// the same variable/constraint order — which is when a simplex basis from
/// one warm-starts the other (sweep presets solve one model under
/// different objectives). Keys the SolverCache basis pool.
std::string structural_model_key(const Model& model);

/// FNV-1a 64-bit hash of `key` (stable across platforms and runs).
std::uint64_t fnv1a64(const std::string& key);

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

  /// Returns the cached solution for `key`, if any. Counts a lookup.
  std::optional<Solution> lookup(const std::string& key);

  /// Stores `solution` under `key`. Duplicate keys keep the first entry so
  /// concurrent insert races cannot flip which solution later hits return
  /// (both racers computed identical solutions anyway — see the header
  /// comment — but first-wins makes that independent of timing).
  void insert(const std::string& key, const Solution& solution);

  /// Basis pool: the revised-simplex root basis of a past solve, keyed by
  /// structural_model_key. Unlike the solution entries this is last-wins —
  /// a basis is a hint, not a result, and the most recent neighbor is the
  /// best available seed. Callers that need bit-reproducible results must
  /// only consult the pool from a deterministic solve order (see
  /// BranchAndBoundOptions::share_basis).
  std::optional<Basis> lookup_basis(const std::string& key);
  void store_basis(const std::string& key, const Basis& basis);

  Stats stats() const;
  std::size_t size() const;
  void clear();

private:
  struct Entry {
    std::string key; ///< full key, verified on hit (hash collisions)
    Solution solution;
  };
  struct BasisEntry {
    std::string key;
    Basis basis;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::unordered_map<std::uint64_t, std::vector<BasisEntry>> basis_entries_;
  Stats stats_;
};

} // namespace luis::ilp

#include "ilp/solver_cache.hpp"

#include <type_traits>

#include "ilp/branch_and_bound.hpp"
#include "obs/metrics.hpp"

namespace luis::ilp {
namespace {

// Every number goes in as its object bytes, so two values append the same
// bytes exactly when they are bit-identical: one-ulp neighbours, -0 and 0
// and NaNs with different payloads all split. Enums go in as one byte, and
// every list is preceded by its length, so a key parses back into its
// fields.
template <typename T>
void append(std::string& out, T v) {
  static_assert(std::is_arithmetic_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_expr(std::string& out, const LinearExpr& expr) {
  append(out, expr.constant());
  append(out, expr.terms().size());
  for (const auto& [var, coeff] : expr.terms()) {
    append(out, var);
    append(out, coeff);
  }
}

} // namespace

std::size_t SolverCache::structure(const Model& model) {
  std::string bytes;
  bytes.reserve(48 * (model.num_variables() + model.num_constraints()));
  append(bytes, model.num_variables());
  for (const Variable& v : model.variables()) {
    append(bytes, static_cast<char>(v.kind));
    append(bytes, v.lower);
    append(bytes, v.upper);
  }
  append(bytes, model.num_constraints());
  for (const Constraint& c : model.constraints()) {
    append(bytes, static_cast<char>(c.sense));
    append(bytes, c.rhs);
    append_expr(bytes, c.expr);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, added] = structures_.try_emplace(bytes, bases_.size());
  if (added) bases_.emplace_back();
  return it->second;
}

std::string SolverCache::key(std::size_t structure, const Objective& objective,
                             const BranchAndBoundOptions& options) {
  std::string out;
  out.reserve(96 + 12 * objective.expr.terms().size());
  append(out, structure);
  append(out, static_cast<char>(objective.direction));
  append_expr(out, objective.expr);
  // Result-affecting solver options: the same model under different limits
  // or tolerances can legitimately produce different incumbents/bounds.
  append(out, options.max_nodes);
  append(out, options.relative_gap);
  append(out, options.prune_tolerance);
  append(out, options.share_basis);
  append(out, options.lp.max_iterations);
  append(out, options.lp.tolerance);
  append(out, options.lp.refactor_interval);
  return out;
}

std::optional<Solution> SolverCache::lookup(const std::string& key) {
  obs::metrics().counter("solver_cache.lookups").inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = results_.find(key);
  if (it == results_.end()) return std::nullopt;
  ++stats_.hits;
  obs::metrics().counter("solver_cache.hits").inc();
  return it->second;
}

void SolverCache::insert(const std::string& key, const Solution& solution) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!results_.try_emplace(key, solution).second) return; // first wins
  ++stats_.insertions;
  obs::metrics().counter("solver_cache.insertions").inc();
}

std::optional<Basis> SolverCache::lookup_basis(std::size_t structure) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Basis& basis = bases_.at(structure);
  if (basis.empty()) return std::nullopt;
  obs::metrics().counter("solver_cache.basis_hits").inc();
  return basis;
}

void SolverCache::store_basis(std::size_t structure, const Basis& basis) {
  if (basis.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  bases_.at(structure) = basis; // last-wins: the freshest neighbor seeds best
}

SolverCache::Stats SolverCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

} // namespace luis::ilp

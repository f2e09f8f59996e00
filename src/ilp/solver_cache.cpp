#include "ilp/solver_cache.hpp"

#include <charconv>

#include "ilp/branch_and_bound.hpp"
#include "obs/metrics.hpp"

namespace luis::ilp {
namespace {

// Numbers go through std::to_chars: the shortest string that parses back
// to the same value, so distinct values (-0 and 0, ±inf included) always
// render differently. Only NaN payloads merge, into "nan" / "-nan".
template <typename T>
void append_number(std::string& out, T v) {
  char buf[32]; // longest double is 24 chars ("-2.2250738585072014e-308")
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_double(std::string& out, double v) {
  append_number(out, v);
  out += ';';
}

void append_expr(std::string& out, const LinearExpr& expr) {
  append_double(out, expr.constant());
  for (const auto& [var, coeff] : expr.terms()) {
    append_number(out, var);
    out += ':';
    append_double(out, coeff);
  }
}

void append_structure(std::string& out, const Model& model) {
  out += "|v|";
  for (const Variable& v : model.variables()) {
    out += v.kind == VarKind::Continuous ? 'c'
           : v.kind == VarKind::Integer  ? 'i'
                                         : 'b';
    append_double(out, v.lower);
    append_double(out, v.upper);
  }

  out += "|c|";
  for (const Constraint& c : model.constraints()) {
    out += c.sense == Sense::LE ? '<' : c.sense == Sense::GE ? '>' : '=';
    append_double(out, c.rhs);
    append_expr(out, c.expr);
  }
}

} // namespace

std::string canonical_model_key(const Model& model, const Objective& objective,
                                const BranchAndBoundOptions& options) {
  std::string out;
  out.reserve(64 * (model.num_variables() + model.num_constraints()));

  out += objective.direction == Direction::Minimize ? "min|" : "max|";
  append_expr(out, objective.expr);
  append_structure(out, model);

  // Result-affecting solver options: the same model under different limits
  // or tolerances can legitimately produce different incumbents/bounds.
  out += "|o|";
  append_number(out, options.max_nodes);
  out += ';';
  append_double(out, options.relative_gap);
  append_double(out, options.prune_tolerance);
  out += options.share_basis ? '1' : '0';
  out += ';';
  append_number(out, options.lp.max_iterations);
  out += ';';
  append_double(out, options.lp.tolerance);
  append_number(out, options.lp.refactor_interval);
  return out;
}

std::string structural_model_key(const Model& model) {
  std::string out;
  out.reserve(64 * (model.num_variables() + model.num_constraints()));
  out += "struct";
  append_structure(out, model);
  return out;
}

std::uint64_t fnv1a64(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::optional<Solution> SolverCache::lookup(const std::string& key) {
  const std::uint64_t h = fnv1a64(key);
  obs::metrics().counter("solver_cache.lookups").inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = entries_.find(h);
  if (it != entries_.end()) {
    for (const Entry& e : it->second) {
      if (e.key == key) {
        ++stats_.hits;
        obs::metrics().counter("solver_cache.hits").inc();
        return e.solution;
      }
    }
  }
  return std::nullopt;
}

void SolverCache::insert(const std::string& key, const Solution& solution) {
  const std::uint64_t h = fnv1a64(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = entries_[h];
  for (const Entry& e : bucket) {
    if (e.key == key) return; // first insertion wins
  }
  bucket.push_back(Entry{key, solution});
  ++stats_.insertions;
  obs::metrics().counter("solver_cache.insertions").inc();
}

std::optional<Basis> SolverCache::lookup_basis(const std::string& key) {
  const std::uint64_t h = fnv1a64(key);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = basis_entries_.find(h);
  if (it != basis_entries_.end()) {
    for (const BasisEntry& e : it->second) {
      if (e.key == key) {
        obs::metrics().counter("solver_cache.basis_hits").inc();
        return e.basis;
      }
    }
  }
  return std::nullopt;
}

void SolverCache::store_basis(const std::string& key, const Basis& basis) {
  if (basis.empty()) return;
  const std::uint64_t h = fnv1a64(key);
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = basis_entries_[h];
  for (BasisEntry& e : bucket) {
    if (e.key == key) {
      e.basis = basis; // last-wins: the freshest neighbor seeds best
      return;
    }
  }
  bucket.push_back(BasisEntry{key, basis});
}

SolverCache::Stats SolverCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t SolverCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [h, bucket] : entries_) n += bucket.size();
  return n;
}

void SolverCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  basis_entries_.clear();
  stats_ = Stats{};
}

} // namespace luis::ilp

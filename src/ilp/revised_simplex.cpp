#include "ilp/revised_simplex.hpp"

#include <algorithm>
#include <cmath>

#include "ilp/certificate.hpp"
#include "support/diag.hpp"

namespace luis::ilp {
namespace {

constexpr double kPivotTol = 1e-9;  ///< minimum usable pivot magnitude
constexpr double kRatioTie = 1e-12; ///< ratio-test tie window
constexpr long kStallLimit = 500;   ///< non-improving pivots before Bland

} // namespace

RevisedSolver::RevisedSolver(const Model& model, const SparseColumns& cols,
                             const Objective& objective,
                             const SimplexOptions& opt)
    : model_(model), cols_(cols), objective_(objective), opt_(opt),
      m_(static_cast<int>(model.num_constraints())),
      n_(static_cast<int>(model.num_variables())), ncols_(n_ + m_) {
  lb_.resize(sz(ncols_));
  ub_.resize(sz(ncols_));
  b_.resize(sz(m_));
  for (int i = 0; i < m_; ++i) {
    const Constraint& c = model_.constraints()[sz(i)];
    b_[sz(i)] = c.rhs;
    // Row sense lives in the slack's bounds: a.x + s = rhs.
    switch (c.sense) {
    case Sense::LE:
      lb_[sz(n_ + i)] = 0.0;
      ub_[sz(n_ + i)] = kInfinity;
      break;
    case Sense::GE:
      lb_[sz(n_ + i)] = -kInfinity;
      ub_[sz(n_ + i)] = 0.0;
      break;
    case Sense::EQ:
      lb_[sz(n_ + i)] = 0.0;
      ub_[sz(n_ + i)] = 0.0;
      break;
    }
  }
  cost_.assign(sz(ncols_), 0.0);
  const double sign =
      objective_.direction == Direction::Minimize ? 1.0 : -1.0;
  for (const auto& [var, coeff] : objective_.expr.terms())
    cost_[sz(var)] = sign * coeff;
  banned_.assign(sz(ncols_), 0);
  cb_.resize(sz(m_));
}

void RevisedSolver::load_column(int j, std::vector<double>& out) const {
  out.assign(sz(m_), 0.0);
  if (j >= n_)
    out[sz(j - n_)] = 1.0;
  else
    cols_.for_entries(j, [&](int r, double v) { out[sz(r)] = v; });
}

double RevisedSolver::dot_column(int j, const std::vector<double>& y) const {
  if (j >= n_) return y[sz(j - n_)];
  double acc = 0.0;
  cols_.for_entries(j, [&](int r, double v) { acc += v * y[sz(r)]; });
  return acc;
}

double RevisedSolver::nonbasic_value(int j) const {
  switch (status_[sz(j)]) {
  case Basis::kAtLower: return lb_[sz(j)];
  case Basis::kAtUpper: return ub_[sz(j)];
  default: return 0.0; // kFree rests at zero
  }
}

bool RevisedSolver::apply_bounds(std::span<const BoundsOverride> overrides) {
  for (int j = 0; j < n_; ++j) {
    lb_[sz(j)] = model_.variables()[sz(j)].lower;
    ub_[sz(j)] = model_.variables()[sz(j)].upper;
  }
  for (const BoundsOverride& o : overrides) {
    lb_[sz(o.var)] = o.lower;
    ub_[sz(o.var)] = o.upper;
  }
  for (int j = 0; j < n_; ++j)
    if (lb_[sz(j)] > ub_[sz(j)] + ptol()) return false;
  return true;
}

void RevisedSolver::cold_start() {
  status_.assign(sz(ncols_), Basis::kAtLower);
  for (int j = 0; j < ncols_; ++j) {
    if (std::isfinite(lb_[sz(j)]))
      status_[sz(j)] = Basis::kAtLower;
    else if (std::isfinite(ub_[sz(j)]))
      status_[sz(j)] = Basis::kAtUpper;
    else
      status_[sz(j)] = Basis::kFree;
  }
  basic_.resize(sz(m_));
  for (int i = 0; i < m_; ++i) {
    basic_[sz(i)] = n_ + i;
    status_[sz(n_ + i)] = Basis::kBasic;
  }
}

bool RevisedSolver::adopt(const Basis& warm) {
  if (!warm.fits(sz(n_), sz(m_))) return false;
  status_ = warm.status;
  basic_ = warm.basic;
  seen_.assign(sz(ncols_), 0);
  for (int i = 0; i < m_; ++i) {
    const int j = basic_[sz(i)];
    if (j < 0 || j >= ncols_ || seen_[sz(j)] ||
        status_[sz(j)] != Basis::kBasic)
      return false;
    seen_[sz(j)] = 1;
  }
  int basics = 0;
  for (int j = 0; j < ncols_; ++j) {
    switch (status_[sz(j)]) {
    case Basis::kBasic:
      if (!seen_[sz(j)]) return false;
      ++basics;
      break;
    // Bounds may have changed since the basis was taken (branching
    // overrides): snap nonbasic statuses onto bounds that still exist.
    case Basis::kAtLower:
      if (!std::isfinite(lb_[sz(j)]))
        status_[sz(j)] = std::isfinite(ub_[sz(j)]) ? Basis::kAtUpper
                                                   : Basis::kFree;
      break;
    case Basis::kAtUpper:
      if (!std::isfinite(ub_[sz(j)]))
        status_[sz(j)] = std::isfinite(lb_[sz(j)]) ? Basis::kAtLower
                                                   : Basis::kFree;
      break;
    case Basis::kFree:
      if (std::isfinite(lb_[sz(j)]))
        status_[sz(j)] = Basis::kAtLower;
      else if (std::isfinite(ub_[sz(j)]))
        status_[sz(j)] = Basis::kAtUpper;
      break;
    default: return false;
    }
  }
  return basics == m_;
}

void RevisedSolver::refactorize() {
  if (!factor_.factorize(cols_, basic_)) {
    // A stale or numerically wrecked basis: restart from the always
    // nonsingular slack basis. Progress is lost but soundness is not.
    cold_start();
    const bool ok = factor_.factorize(cols_, basic_);
    LUIS_ASSERT(ok, "slack basis must factorize");
  }
}

void RevisedSolver::recompute_xb() {
  xb_.assign(b_.begin(), b_.end());
  for (int j = 0; j < ncols_; ++j) {
    if (status_[sz(j)] == Basis::kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    if (j >= n_)
      xb_[sz(j - n_)] -= v;
    else
      cols_.for_entries(j, [&](int r, double a) { xb_[sz(r)] -= a * v; });
  }
  factor_.ftran(xb_);
}

bool RevisedSolver::primal_infeasible() const {
  for (int i = 0; i < m_; ++i) {
    const int j = basic_[sz(i)];
    if (xb_[sz(i)] < lb_[sz(j)] - ptol() || xb_[sz(i)] > ub_[sz(j)] + ptol())
      return true;
  }
  return false;
}

bool RevisedSolver::dual_feasible() {
  y_.resize(sz(m_));
  for (int i = 0; i < m_; ++i) y_[sz(i)] = cost_[sz(basic_[sz(i)])];
  factor_.btran(y_);
  const std::vector<double>& y = y_;
  const double slack = 10.0 * dtol();
  for (int j = 0; j < ncols_; ++j) {
    if (status_[sz(j)] == Basis::kBasic || fixed_column(j)) continue;
    const double d = cost_[sz(j)] - dot_column(j, y);
    switch (status_[sz(j)]) {
    case Basis::kAtLower:
      if (d < -slack) return false;
      break;
    case Basis::kAtUpper:
      if (d > slack) return false;
      break;
    default: // kFree
      if (std::abs(d) > slack) return false;
      break;
    }
  }
  return true;
}

RevisedSolver::Step RevisedSolver::primal(bool phase1) {
  long stall = 0;
  double last_obj = kInfinity;
  // Phase 2 needs its objective only to detect stalls, so it tracks how
  // far the pivots have lowered it (|d| * step each) instead of summing
  // all n + m columns every iteration.
  double descent = 0.0;
  std::fill(banned_.begin(), banned_.end(), 0);
  std::vector<double>& cb = cb_;
  for (;;) {
    if (pivots_ >= opt_.max_iterations) return Step::IterationLimit;

    // Phase objective: sum of bound violations (phase 1, costs rebuilt
    // every iteration as violations change) or the real costs (phase 2).
    double infeas = 0.0;
    if (phase1) {
      std::fill(cb.begin(), cb.end(), 0.0);
      for (int i = 0; i < m_; ++i) {
        const int j = basic_[sz(i)];
        if (xb_[sz(i)] < lb_[sz(j)] - ptol()) {
          cb[sz(i)] = -1.0;
          infeas += lb_[sz(j)] - xb_[sz(i)];
        } else if (xb_[sz(i)] > ub_[sz(j)] + ptol()) {
          cb[sz(i)] = 1.0;
          infeas += xb_[sz(i)] - ub_[sz(j)];
        }
      }
      if (infeas <= ptol()) return Step::Done;
    } else {
      for (int i = 0; i < m_; ++i) cb[sz(i)] = cost_[sz(basic_[sz(i)])];
    }

    const double obj = phase1 ? infeas : descent;
    if (obj < last_obj - kRatioTie) {
      last_obj = obj;
      stall = 0;
    } else {
      ++stall;
    }
    const bool bland = stall > kStallLimit;

    y_ = cb;
    factor_.btran(y_);
    const std::vector<double>& y = y_;

    // Entering column: Dantzig (most attractive reduced cost), Bland
    // (first eligible index) once the objective stalls.
    int enter = -1, dir = +1;
    double best = 0.0; // |d| of the entering column
    for (int j = 0; j < ncols_; ++j) {
      if (status_[sz(j)] == Basis::kBasic || banned_[sz(j)]) continue;
      if (fixed_column(j)) continue; // cannot move off its value
      const double d = (phase1 ? 0.0 : cost_[sz(j)]) - dot_column(j, y);
      int cand = 0;
      if (status_[sz(j)] == Basis::kAtLower && d < -dtol())
        cand = +1;
      else if (status_[sz(j)] == Basis::kAtUpper && d > dtol())
        cand = -1;
      else if (status_[sz(j)] == Basis::kFree && std::abs(d) > dtol())
        cand = d < 0.0 ? +1 : -1;
      if (cand == 0) continue;
      if (bland) {
        enter = j;
        dir = cand;
        best = std::abs(d);
        break;
      }
      if (std::abs(d) > best) {
        best = std::abs(d);
        enter = j;
        dir = cand;
      }
    }
    if (enter < 0)
      return phase1 ? Step::Infeasible : Step::Done;

    load_column(enter, work_);
    factor_.ftran(work_);

    // Ratio test. The entering variable moves by t >= 0 in direction
    // `dir`; basic i changes at rate delta_i = -dir * w_i. In phase 1,
    // infeasible basics only block at the bound that makes them feasible
    // and pass freely otherwise.
    const bool can_flip = status_[sz(enter)] != Basis::kFree &&
                          std::isfinite(lb_[sz(enter)]) &&
                          std::isfinite(ub_[sz(enter)]);
    const double t_flip =
        can_flip ? ub_[sz(enter)] - lb_[sz(enter)] : kInfinity;
    int leave = -1;
    bool leave_at_upper = false;
    double t_best = kInfinity, best_piv = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double wi = work_[sz(i)];
      if (std::abs(wi) <= kPivotTol) continue;
      const double delta = -dir * wi;
      const int bj = basic_[sz(i)];
      double bound;
      bool at_upper;
      if (phase1 && xb_[sz(i)] < lb_[sz(bj)] - ptol()) {
        if (delta <= 0.0) continue;
        bound = lb_[sz(bj)];
        at_upper = false;
      } else if (phase1 && xb_[sz(i)] > ub_[sz(bj)] + ptol()) {
        if (delta >= 0.0) continue;
        bound = ub_[sz(bj)];
        at_upper = true;
      } else if (delta < 0.0) {
        if (!std::isfinite(lb_[sz(bj)])) continue;
        bound = lb_[sz(bj)];
        at_upper = false;
      } else {
        if (!std::isfinite(ub_[sz(bj)])) continue;
        bound = ub_[sz(bj)];
        at_upper = true;
      }
      double t = (bound - xb_[sz(i)]) / delta;
      if (t < 0.0) t = 0.0; // tolerance overshoot at a degenerate vertex
      const bool wins =
          t < t_best - kRatioTie ||
          (t < t_best + kRatioTie &&
           (std::abs(wi) > best_piv + kRatioTie ||
            (leave >= 0 && std::abs(std::abs(wi) - best_piv) <= kRatioTie &&
             bj < basic_[sz(leave)])));
      if (wins) {
        t_best = t;
        leave = i;
        leave_at_upper = at_upper;
        best_piv = std::abs(wi);
      }
    }

    if (t_flip <= t_best + kRatioTie && can_flip) {
      // Bound flip: the entering variable crosses its whole range before
      // any basic blocks. No basis change, just shift the basics.
      for (int i = 0; i < m_; ++i)
        xb_[sz(i)] += -dir * work_[sz(i)] * t_flip;
      status_[sz(enter)] = status_[sz(enter)] == Basis::kAtLower
                               ? Basis::kAtUpper
                               : Basis::kAtLower;
      descent -= best * t_flip;
      ++pivots_;
      continue;
    }
    if (leave < 0) {
      ray_enter_ = enter;
      ray_dir_ = dir;
      return phase1 ? Step::Infeasible : Step::Unbounded;
    }
    if (std::abs(work_[sz(leave)]) < kPivotTol) {
      // Unstable pivot: refresh the factorization (the ftran may be eta
      // drift) or, if already fresh, retire this column for the round.
      if (factor_.eta_count() > 0) {
        refactorize();
        recompute_xb();
      } else {
        banned_[sz(enter)] = 1;
      }
      continue;
    }

    const double enter_val = nonbasic_value(enter) + dir * t_best;
    const int lcol = basic_[sz(leave)];
    for (int i = 0; i < m_; ++i)
      if (i != leave) xb_[sz(i)] += -dir * work_[sz(i)] * t_best;
    status_[sz(lcol)] = leave_at_upper ? Basis::kAtUpper : Basis::kAtLower;
    status_[sz(enter)] = Basis::kBasic;
    basic_[sz(leave)] = enter;
    xb_[sz(leave)] = enter_val;
    descent -= best * t_best;
    if (!factor_.update(leave, work_)) {
      refactorize();
    }
    std::fill(banned_.begin(), banned_.end(), 0);
    ++pivots_;
    if (factor_.eta_count() >= opt_.refactor_interval) {
      refactorize();
      recompute_xb();
    }
  }
}

RevisedSolver::Step RevisedSolver::dual_reoptimize() {
  // The dual simplex restores primal feasibility after bound changes
  // while keeping dual feasibility — the warm-start fast path. It is an
  // accelerator only: bailing out (Step::Done) is always sound because
  // solve() follows with the primal phases.
  const long cap = std::max<long>(500, 4L * m_ + 200);
  long iters = 0;
  int fumbles = 0;
  for (;;) {
    if (pivots_ >= opt_.max_iterations) return Step::IterationLimit;
    if (++iters > cap) return Step::Done;

    int r = -1;
    bool below = false;
    double worst = ptol();
    for (int i = 0; i < m_; ++i) {
      const int j = basic_[sz(i)];
      const double vb = lb_[sz(j)] - xb_[sz(i)];
      const double va = xb_[sz(i)] - ub_[sz(j)];
      if (vb > worst) {
        worst = vb;
        r = i;
        below = true;
      }
      if (va > worst) {
        worst = va;
        r = i;
        below = false;
      }
    }
    if (r < 0) return Step::Done; // primal feasible again

    y_.resize(sz(m_));
    for (int i = 0; i < m_; ++i) y_[sz(i)] = cost_[sz(basic_[sz(i)])];
    factor_.btran(y_);
    const std::vector<double>& y = y_;
    rho_.assign(sz(m_), 0.0);
    rho_[sz(r)] = 1.0;
    factor_.btran(rho_);
    const std::vector<double>& rho = rho_;

    // Entering column: dual ratio test. The leaving basic must move back
    // to its violated bound, so eligible nonbasics are those whose move
    // pushes row r the right way; among them the smallest |d|/|alpha|
    // keeps every other reduced cost dual feasible.
    int enter = -1;
    double best_ratio = kInfinity, best_alpha = 0.0;
    for (int j = 0; j < ncols_; ++j) {
      if (status_[sz(j)] == Basis::kBasic || fixed_column(j)) continue;
      const double alpha = dot_column(j, rho);
      if (std::abs(alpha) <= kPivotTol) continue;
      bool ok = false;
      const std::uint8_t st = status_[sz(j)];
      if (st == Basis::kAtLower || st == Basis::kFree)
        ok = ok || (below ? alpha < 0.0 : alpha > 0.0);
      if (st == Basis::kAtUpper || st == Basis::kFree)
        ok = ok || (below ? alpha > 0.0 : alpha < 0.0);
      if (!ok) continue;
      const double d = cost_[sz(j)] - dot_column(j, y);
      const double ratio = std::abs(d) / std::abs(alpha);
      if (ratio < best_ratio - kRatioTie ||
          (ratio < best_ratio + kRatioTie &&
           std::abs(alpha) > std::abs(best_alpha))) {
        best_ratio = ratio;
        enter = j;
        best_alpha = alpha;
      }
    }
    if (enter < 0) { // dual unbounded: rho_ is a Farkas ray
      evidence_ = Evidence::DualRow;
      evidence_below_ = below;
      return Step::Infeasible;
    }

    load_column(enter, work_);
    factor_.ftran(work_);
    const double wr = work_[sz(r)];
    if (std::abs(wr) < kPivotTol) {
      if (factor_.eta_count() > 0 && fumbles < 3) {
        ++fumbles;
        refactorize();
        recompute_xb();
        continue;
      }
      return Step::Done; // punt to the primal phases
    }
    fumbles = 0;

    const int lcol = basic_[sz(r)];
    const double bound = below ? lb_[sz(lcol)] : ub_[sz(lcol)];
    const double delta = (xb_[sz(r)] - bound) / wr;
    for (int i = 0; i < m_; ++i)
      if (i != r) xb_[sz(i)] -= work_[sz(i)] * delta;
    const double enter_val = nonbasic_value(enter) + delta;
    status_[sz(lcol)] = below ? Basis::kAtLower : Basis::kAtUpper;
    status_[sz(enter)] = Basis::kBasic;
    basic_[sz(r)] = enter;
    xb_[sz(r)] = enter_val;
    if (!factor_.update(r, work_)) refactorize();
    ++pivots_;
    if (factor_.eta_count() >= opt_.refactor_interval) {
      refactorize();
      recompute_xb();
    }
  }
}

Solution RevisedSolver::solve(std::span<const BoundsOverride> overrides,
                              Basis* basis) {
  Solution sol;
  pivots_ = 0;
  evidence_ = Evidence::Duals;
  if (!apply_bounds(overrides)) {
    evidence_ = Evidence::CrossedBounds;
    sol.status = SolveStatus::Infeasible;
    return sol;
  }

  const bool warm = basis && !basis->empty() && adopt(*basis);
  if (!warm) cold_start();
  if (!factor_.factorize(cols_, basic_)) {
    cold_start();
    const bool ok = factor_.factorize(cols_, basic_);
    LUIS_ASSERT(ok, "slack basis must factorize");
  }
  recompute_xb();

  Step step = Step::Done;
  if (warm && primal_infeasible() && dual_feasible())
    step = dual_reoptimize();
  if (step == Step::Done && primal_infeasible()) step = primal(true);
  if (step == Step::Done) step = primal(false);

  sol.iterations = pivots_;
  if (basis) {
    // Persist even partial progress: a limit-hit basis is still a better
    // start than cold for whoever retries.
    basis->status = status_;
    basis->basic = basic_;
  }
  switch (step) {
  case Step::Infeasible:
    sol.status = SolveStatus::Infeasible;
    return sol;
  case Step::Unbounded:
    sol.status = SolveStatus::Unbounded;
    return sol;
  case Step::IterationLimit:
    sol.status = SolveStatus::IterationLimit;
    return sol;
  case Step::Done: break;
  }

  sol.values.assign(sz(n_), 0.0);
  for (int j = 0; j < n_; ++j)
    if (status_[sz(j)] != Basis::kBasic) sol.values[sz(j)] = nonbasic_value(j);
  for (int i = 0; i < m_; ++i)
    if (basic_[sz(i)] < n_) sol.values[sz(basic_[sz(i)])] = xb_[sz(i)];
  sol.status = SolveStatus::Optimal;
  sol.objective = objective_.value(sol.values);
  sol.best_bound = sol.objective;
  return sol;
}

void RevisedSolver::multipliers(std::vector<double>& out) const {
  switch (evidence_) {
  case Evidence::Duals: out = y_; break;
  case Evidence::CrossedBounds: out.clear(); break;
  case Evidence::DualRow:
    // Row r of B^-1 gives x_Br = rho.(b - N x_N). No nonbasic can push
    // x_Br back into its bounds, so -rho (below) or rho (above) has a
    // positive Farkas sum.
    out = rho_;
    if (evidence_below_)
      for (double& v : out) v = -v;
    break;
  }
}

void RevisedSolver::unbounded_ray(std::vector<double>& point,
                                  std::vector<double>& ray) const {
  point.assign(sz(n_), 0.0);
  ray.assign(sz(n_), 0.0);
  for (int j = 0; j < n_; ++j)
    if (status_[sz(j)] != Basis::kBasic) point[sz(j)] = nonbasic_value(j);
  if (ray_enter_ < n_) ray[sz(ray_enter_)] = ray_dir_;
  for (int i = 0; i < m_; ++i) {
    if (basic_[sz(i)] >= n_) continue;
    point[sz(basic_[sz(i)])] = xb_[sz(i)];
    ray[sz(basic_[sz(i)])] = -ray_dir_ * work_[sz(i)];
  }
}

Solution solve_lp(const Model& model, const Objective& objective,
                  const SimplexOptions& options,
                  std::span<const BoundsOverride> overrides,
                  Certificate* certificate) {
  const SparseColumns cols = model.sparse_columns();
  RevisedSolver solver(model, cols, objective, options);
  Solution sol = solver.solve(overrides, nullptr);
  if (!certificate) return sol;
  *certificate = {};
  if (sol.status == SolveStatus::Unbounded) {
    solver.unbounded_ray(certificate->point, certificate->ray);
  } else if (sol.status != SolveStatus::IterationLimit) {
    Certificate::Leaf& leaf = certificate->leaves.emplace_back();
    if (sol.status == SolveStatus::Infeasible)
      leaf.closed = Certificate::Closed::Infeasible;
    solver.multipliers(leaf.duals);
  }
  return sol;
}

} // namespace luis::ilp

#include "core/ilp_allocator.hpp"

#include <algorithm>
#include <cmath>

#include "core/type_classes.hpp"
#include "ilp/branch_and_bound.hpp"
#include "interp/interpreter.hpp"
#include "numrep/iebw.hpp"
#include "numrep/posit.hpp"
#include "numrep/registry.hpp"
#include "numrep/soft_float.hpp"
#include "obs/trace.hpp"
#include "support/diag.hpp"

namespace luis::core {

using interp::cost_class;
using numrep::ConcreteType;
using numrep::NumericFormat;

namespace {

/// Big-M for the fractional-bit coupling constraints: z never exceeds the
/// widest supported fixed point word.
constexpr double kBigM = 64.0;

const char* model_op_name(ir::Opcode op) {
  switch (op) {
  case ir::Opcode::Add: return "add";
  case ir::Opcode::Sub: return "sub";
  case ir::Opcode::Mul: return "mul";
  case ir::Opcode::Div: return "div";
  case ir::Opcode::Rem: return "rem";
  case ir::Opcode::Neg: return "neg";
  case ir::Opcode::Abs: return "abs";
  case ir::Opcode::Sqrt: return "sqrt";
  case ir::Opcode::Exp: return "exp";
  case ir::Opcode::Pow: return "pow";
  case ir::Opcode::Min: return "min";
  case ir::Opcode::Max: return "max";
  default: LUIS_UNREACHABLE("not tunable arithmetic");
  }
}

std::string class_of_format(const NumericFormat& fmt) {
  return cost_class(ConcreteType{fmt, 0});
}

/// True if `fmt` can hold every value of `range`, as judged by the
/// format's registered policy (fixed point: a nonnegative fractional bit
/// count exists; floats and fixed-posits: executable and within the
/// finite range; posits: always, by saturation).
bool format_feasible(const NumericFormat& fmt, const vra::Interval& range) {
  return numrep::format_ops(fmt).feasible(fmt, range.lo, range.hi);
}

} // namespace

AllocationResult allocate_ilp(const ir::Function& f, const vra::RangeMap& ranges,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config) {
  AllocationResult out;
  obs::TraceSpan build_span("ilp.build_model", "ilp",
                            obs::TimeSink{&out.stats.model_build_seconds});
  const TypeClasses classes = compute_type_classes(f);
  const auto& types = config.types;
  const int ntypes = static_cast<int>(types.size());
  LUIS_ASSERT(ntypes > 0, "empty candidate type set");
  const bool literal = config.literal_model;

  out.stats.num_registers = static_cast<int>(classes.registers.size());
  out.stats.num_classes = classes.num_classes();
  out.stats.num_uses = static_cast<int>(classes.uses.size());

  // A model *unit* carries one set of x variables: a type class in the
  // merged formulation, an individual virtual register in the literal one.
  std::map<const ir::Value*, int> reg_index;
  for (std::size_t i = 0; i < classes.registers.size(); ++i)
    reg_index[classes.registers[i]] = static_cast<int>(i);
  const int num_units =
      literal ? static_cast<int>(classes.registers.size()) : classes.num_classes();
  auto unit_of = [&](const ir::Value* v) {
    return literal ? reg_index.at(v) : classes.class_of.at(v);
  };

  // Cost pricing: op-time for the paper's model, op-energy for the
  // Section VI extension.
  auto priced = [&](const std::string& op, const std::string& type_class) {
    return config.metric == CostMetric::Time
               ? table.op_time(op, type_class)
               : platform::op_energy(table, op, type_class, config.power);
  };
  auto priced_cast = [&](const std::string& from, const std::string& to) {
    return priced("cast_" + from, to);
  };

  // ---- Type feasibility (always judged class-wide so that same-type
  // webs agree on the candidate set). ----
  std::vector<std::vector<bool>> class_feasible(
      static_cast<std::size_t>(classes.num_classes()),
      std::vector<bool>(static_cast<std::size_t>(ntypes), true));
  for (int c = 0; c < classes.num_classes(); ++c) {
    bool any = false;
    for (int ti = 0; ti < ntypes; ++ti) {
      bool ok = true;
      for (const ir::Value* v : classes.members[static_cast<std::size_t>(c)])
        ok = ok && format_feasible(types[static_cast<std::size_t>(ti)],
                                   ranges.of(v));
      class_feasible[static_cast<std::size_t>(c)][static_cast<std::size_t>(ti)] = ok;
      any = any || ok;
    }
    if (!any) {
      // Fall back to the widest float in the set (ranges beyond even
      // binary64 are clamped artifacts; binary64 is the sane default).
      int widest = 0;
      for (int ti = 1; ti < ntypes; ++ti)
        if (types[static_cast<std::size_t>(ti)].is_float() &&
            types[static_cast<std::size_t>(ti)].precision() >
                types[static_cast<std::size_t>(widest)].precision())
          widest = ti;
      class_feasible[static_cast<std::size_t>(c)][static_cast<std::size_t>(widest)] =
          true;
    }
  }
  auto unit_feasible = [&](int unit, int ti) {
    const int c = literal ? classes.class_of.at(
                                classes.registers[static_cast<std::size_t>(unit)])
                          : unit;
    return class_feasible[static_cast<std::size_t>(c)][static_cast<std::size_t>(ti)];
  };

  // ---- x variables and one-hot rows. ----
  ilp::Model model;
  std::vector<std::vector<ilp::VarId>> x(
      static_cast<std::size_t>(num_units),
      std::vector<ilp::VarId>(static_cast<std::size_t>(ntypes), -1));
  for (int u = 0; u < num_units; ++u) {
    ilp::LinearExpr one_hot;
    for (int ti = 0; ti < ntypes; ++ti) {
      if (!unit_feasible(u, ti)) continue;
      const ilp::VarId var = model.add_binary(
          "x_u" + std::to_string(u) + "_" +
          types[static_cast<std::size_t>(ti)].name());
      x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)] = var;
      one_hot.add(var, 1.0);
    }
    model.add_eq(std::move(one_hot), 1.0, "onehot_u" + std::to_string(u));
  }

  // Literal formulation: the hard x_{a,t} = x_{b,t} rows the merged
  // formulation folds into the classes.
  if (literal) {
    for (const auto& [a, b] : classes.same_type_edges) {
      const int ua = unit_of(a), ub = unit_of(b);
      if (ua == ub) continue;
      for (int ti = 0; ti < ntypes; ++ti) {
        const ilp::VarId xa = x[static_cast<std::size_t>(ua)][static_cast<std::size_t>(ti)];
        const ilp::VarId xb = x[static_cast<std::size_t>(ub)][static_cast<std::size_t>(ti)];
        if (xa < 0 && xb < 0) continue;
        ilp::LinearExpr eq;
        if (xa >= 0) eq.add(xa, 1.0);
        if (xb >= 0) eq.add(xb, -1.0);
        model.add_eq(std::move(eq), 0.0);
      }
    }
  }

  // ---- z variables: fractional bits per (register, fixed type). ----
  std::vector<std::vector<ilp::VarId>> z(
      classes.registers.size(),
      std::vector<ilp::VarId>(static_cast<std::size_t>(ntypes), -1));
  for (std::size_t r = 0; r < classes.registers.size(); ++r) {
    const ir::Value* v = classes.registers[r];
    const int u = unit_of(v);
    for (int ti = 0; ti < ntypes; ++ti) {
      const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
      if (!fmt.is_fixed()) continue;
      const ilp::VarId xv =
          x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)];
      if (xv < 0) continue;
      const vra::Interval range = ranges.of(v);
      const int fixmax = std::min(
          numrep::fixed_point_max_frac(fmt.width(), fmt.is_signed(), range.lo,
                                       range.hi),
          fmt.width() - 1);
      if (fixmax < 0) continue; // this member forbids the type class-wide
      const ilp::VarId zv = model.add_continuous(
          "z_r" + std::to_string(r) + "_" + fmt.name(), 0.0,
          static_cast<double>(fixmax));
      z[r][static_cast<std::size_t>(ti)] = zv;
      // z <= M * x : no fractional bits unless the type is chosen.
      model.add_le(ilp::LinearExpr().add(zv, 1.0).add(xv, -kBigM), 0.0);
    }
  }

  // ---- Ex: execution time of tunable arithmetic. ----
  ilp::LinearExpr ex;
  double ex_max = 0.0;
  for (const auto& bb : f.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_tunable_arithmetic()) continue;
      const int u = unit_of(inst.get());
      const char* op = model_op_name(inst->opcode());
      double worst = 0.0;
      for (int ti = 0; ti < ntypes; ++ti) {
        const ilp::VarId xv =
            x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)];
        if (xv < 0) continue;
        const double t =
            priced(op, class_of_format(types[static_cast<std::size_t>(ti)]));
        ex.add(xv, t);
        worst = std::max(worst, t);
      }
      ex_max += worst;
    }
  }

  // ---- C: cast cost. Aggregated per ordered unit pair (each use of the
  // same pair shares the y indicators, scaled by the use count); in the
  // literal formulation every unit is a register, so this degenerates to
  // the paper's per-use y variables. ----
  std::map<std::pair<int, int>, int> pair_count;
  for (const UseEdge& use : classes.uses) {
    // Uses inside one type class can never cast: the x equalities (folded
    // or explicit) force both ends onto the same type. Their indicators
    // would be dead variables and would inflate the C normalization.
    if (classes.class_of.at(use.used) == classes.class_of.at(use.user)) continue;
    ++pair_count[{unit_of(use.used), unit_of(use.user)}];
  }
  ilp::LinearExpr cast_cost;
  double cast_max = 0.0;
  for (const auto& [pair, count] : pair_count) {
    const auto [ua, ub] = pair;
    double worst = 0.0;
    for (int ta = 0; ta < ntypes; ++ta) {
      const ilp::VarId xa =
          x[static_cast<std::size_t>(ua)][static_cast<std::size_t>(ta)];
      if (xa < 0) continue;
      for (int tb = 0; tb < ntypes; ++tb) {
        const ilp::VarId xb =
            x[static_cast<std::size_t>(ub)][static_cast<std::size_t>(tb)];
        if (xb < 0) continue;
        if (types[static_cast<std::size_t>(ta)] ==
            types[static_cast<std::size_t>(tb)])
          continue; // same format: at most a shift realignment (Cfix)
        const double t =
            priced_cast(class_of_format(types[static_cast<std::size_t>(ta)]),
                        class_of_format(types[static_cast<std::size_t>(tb)]));
        const ilp::VarId y = model.add_continuous(
            "y_u" + std::to_string(ua) + "t" + std::to_string(ta) + "_u" +
                std::to_string(ub) + "t" + std::to_string(tb),
            0.0, 1.0);
        // x_a + x_b <= y + 1
        model.add_le(ilp::LinearExpr().add(xa, 1.0).add(xb, 1.0).add(y, -1.0),
                     1.0);
        cast_cost.add(y, static_cast<double>(count) * t);
        worst = std::max(worst, t);
      }
    }
    cast_max += static_cast<double>(count) * worst;
  }

  // ---- Cfix: fixed point realignment (shift) casts per use. ----
  ilp::LinearExpr fix_cost;
  double fix_max = 0.0;
  for (const UseEdge& use : classes.uses) {
    const int ra = reg_index.at(use.used);
    const int rb = reg_index.at(use.user);
    for (int ti = 0; ti < ntypes; ++ti) {
      const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
      if (!fmt.is_fixed()) continue;
      const ilp::VarId za = z[static_cast<std::size_t>(ra)][static_cast<std::size_t>(ti)];
      const ilp::VarId zb = z[static_cast<std::size_t>(rb)][static_cast<std::size_t>(ti)];
      if (za < 0 || zb < 0) continue;
      const double t = priced_cast("fix", "fix");
      const ilp::VarId y1 = model.add_continuous("yfix1", 0.0, 1.0);
      const ilp::VarId y2 = model.add_continuous("yfix2", 0.0, 1.0);
      model.add_le(ilp::LinearExpr().add(za, 1.0).add(zb, -1.0).add(y1, -kBigM), 0.0);
      model.add_le(ilp::LinearExpr().add(zb, 1.0).add(za, -1.0).add(y2, -kBigM), 0.0);
      fix_cost.add(y1, t);
      fix_cost.add(y2, t);
      fix_max += 2.0 * t;
    }
  }

  // ---- Err: total IEBW (maximized). ----
  ilp::LinearExpr err;
  double err_max = 0.0;
  for (std::size_t r = 0; r < classes.registers.size(); ++r) {
    const ir::Value* v = classes.registers[r];
    const int u = unit_of(v);
    const vra::Interval range = ranges.of(v);
    double best = 0.0;
    for (int ti = 0; ti < ntypes; ++ti) {
      const ilp::VarId xv =
          x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)];
      if (xv < 0) continue;
      const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
      if (fmt.is_fixed()) {
        const ilp::VarId zv = z[r][static_cast<std::size_t>(ti)];
        if (zv >= 0) {
          err.add(zv, 1.0);
          best = std::max(best, model.variables()[static_cast<std::size_t>(zv)].upper);
        }
      } else {
        // Literal Definition 2: max IEBW over the interval, i.e. the
        // resolution at the smallest representable magnitude. This is
        // what makes wide floats dominate the Err term for ranges that
        // approach zero — and what reproduces the paper's Balanced
        // behaviour (Table V: mostly binary64 at W1 = W2).
        const double iebw = static_cast<double>(numrep::iebw_of_range_best_case(
            fmt, range.lo, range.hi, 0, config.err_zero_floor));
        err.add(xv, iebw);
        best = std::max(best, std::abs(iebw));
      }
    }
    err_max += best;
  }

  // ---- Objective: min W1 (Ex^ + C^ + Cfix^) - W2 Err^. ----
  const double exn = config.w1 / std::max(ex_max, 1.0);
  const double cn = config.w1 / std::max(cast_max, 1.0);
  const double fn = config.w1 / std::max(fix_max, 1.0);
  const double en = config.w2 / std::max(err_max, 1.0);
  ilp::LinearExpr objective;
  for (const auto& [var, coeff] : ex.terms()) objective.add(var, exn * coeff);
  for (const auto& [var, coeff] : cast_cost.terms()) objective.add(var, cn * coeff);
  for (const auto& [var, coeff] : fix_cost.terms()) objective.add(var, fn * coeff);
  for (const auto& [var, coeff] : err.terms()) objective.add(var, -en * coeff);
  model.set_objective(ilp::Direction::Minimize, std::move(objective));
  build_span.end();

  out.stats.model_variables = model.num_variables();
  out.stats.model_constraints = model.num_constraints();

  // ---- Solve (result-cache probe, then branch & bound on a miss). ----
  obs::TraceSpan solve_span(
      "ilp.solve", "ilp",
      [&] {
        return obs::Args()
            .num("variables", model.num_variables())
            .num("constraints", model.constraints().size())
            .boolean("cached", config.solver.cache != nullptr)
            .done();
      },
      obs::TimeSink{&out.stats.solve_seconds});
  const ilp::Solution solution = ilp::solve_milp(model, config.solver);
  solve_span.end();
  out.stats.status = solution.status;
  out.stats.nodes = solution.nodes;
  out.stats.iterations = solution.iterations;
  out.stats.objective = solution.objective;

  const bool have_solution = solution.status == ilp::SolveStatus::Optimal ||
                             (solution.status == ilp::SolveStatus::NodeLimit &&
                              !solution.values.empty());

  // ---- Extract the assignment. ----
  std::vector<int> chosen(static_cast<std::size_t>(num_units), -1);
  for (int u = 0; u < num_units; ++u) {
    if (have_solution) {
      for (int ti = 0; ti < ntypes; ++ti) {
        const ilp::VarId xv =
            x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)];
        if (xv >= 0 && solution.value(xv) > 0.5)
          chosen[static_cast<std::size_t>(u)] = ti;
      }
    }
    if (chosen[static_cast<std::size_t>(u)] < 0) {
      // Defensive fallback: binary64 (or the last feasible type).
      for (int ti = 0; ti < ntypes; ++ti)
        if (unit_feasible(u, ti) &&
            (chosen[static_cast<std::size_t>(u)] < 0 ||
             types[static_cast<std::size_t>(ti)] == numrep::kBinary64))
          chosen[static_cast<std::size_t>(u)] = ti;
    }
  }

  for (std::size_t r = 0; r < classes.registers.size(); ++r) {
    const ir::Value* v = classes.registers[r];
    const int ti = chosen[static_cast<std::size_t>(unit_of(v))];
    const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
    ConcreteType ct{fmt, 0};
    if (fmt.is_fixed()) {
      const ilp::VarId zv = z[r][static_cast<std::size_t>(ti)];
      int frac = 0;
      if (zv >= 0 && have_solution)
        frac = static_cast<int>(std::floor(solution.value(zv) + 1e-6));
      else if (zv >= 0)
        frac = static_cast<int>(model.variables()[static_cast<std::size_t>(zv)].upper);
      ct.frac_bits = std::clamp(frac, 0, fmt.width() - 1);
    }
    out.assignment.set(v, ct);
  }

  // ---- Instruction mix (Table V metric). ----
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic())
        ++out.stats.instruction_mix[cost_class(out.assignment.of(inst.get()))];

  return out;
}

} // namespace luis::core

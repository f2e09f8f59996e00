#include "core/ilp_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <map>

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

std::string class_of_format(const NumericFormat& fmt) {
  return cost_class(ConcreteType{fmt, 0});
}

/// True if `fmt` can hold every value of `range`, as judged by the
/// format's class policy (fixed point: a nonnegative fractional bit
/// count exists; floats and fixed-posits: executable and within the
/// finite range; posits: always, by saturation).
bool format_feasible(const NumericFormat& fmt, const vra::Interval& range) {
  return numrep::format_ops(fmt).feasible(fmt, range.lo, range.hi);
}

/// The op-time (or op-energy) of one `IlpStructure::prices` entry.
double price_of(const std::pair<std::string, std::string>& key,
                const platform::OpTimeTable& table,
                const TuningConfig& config) {
  return config.metric == CostMetric::Time
             ? table.op_time(key.first, key.second)
             : platform::op_energy(table, key.first, key.second, config.power);
}

} // namespace

bool same_ilp_structure(const TuningConfig& a, const TuningConfig& b) {
  return a.types == b.types && a.literal_model == b.literal_model &&
         a.err_zero_floor == b.err_zero_floor;
}

ilp::Objective price_objective(const IlpStructure& s,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config) {
  LUIS_ASSERT(config.types == s.types &&
                  config.literal_model == s.literal_model &&
                  config.err_zero_floor == s.err_zero_floor,
              "price_objective: config builds a different structure");
  // One lookup per distinct (op, type class); the sums below replay the
  // structure's terms in build order, so each coefficient adds the same
  // values in the same order as a one-pass build.
  std::vector<double> price(s.prices.size());
  for (std::size_t k = 0; k < price.size(); ++k)
    price[k] = price_of(s.prices[k], table, config);

  double ex_max = 0.0;
  std::size_t term = 0;
  for (const std::size_t end : s.ex_ends) {
    double worst = 0.0;
    for (; term < end; ++term)
      worst = std::max(worst, price[s.ex[term].price]);
    ex_max += worst;
  }
  double cast_max = 0.0;
  term = 0;
  for (const auto& [count, end] : s.cast_pairs) {
    double worst = 0.0;
    for (; term < end; ++term)
      worst = std::max(worst, price[s.cast[term].price]);
    cast_max += static_cast<double>(count) * worst;
  }
  double fix_max = 0.0;
  for (const IlpStructure::Shift& shift : s.shifts)
    fix_max += 2.0 * price[shift.price];

  // ---- Objective: min W1 (Ex^ + C^ + Cfix^) - W2 Err^. Each variable's
  // terms are summed in replay order and the variables taken in ascending
  // order, dropping exact zeros: the normalized form, bit for bit. ----
  const double exn = config.w1 / std::max(ex_max, 1.0);
  const double cn = config.w1 / std::max(cast_max, 1.0);
  const double fn = config.w1 / std::max(fix_max, 1.0);
  const double en = config.w2 / std::max(s.err_max, 1.0);
  std::vector<double> coeff(s.model.num_variables(), 0.0);
  auto add = [&](ilp::VarId var, double c) {
    coeff[static_cast<std::size_t>(var)] += c;
  };
  for (const IlpStructure::Term& t : s.ex) add(t.var, exn * price[t.price]);
  term = 0;
  for (const auto& [count, end] : s.cast_pairs)
    for (; term < end; ++term)
      add(s.cast[term].var,
          cn * (static_cast<double>(count) * price[s.cast[term].price]));
  for (const IlpStructure::Shift& shift : s.shifts) {
    add(shift.up, fn * price[shift.price]);
    add(shift.down, fn * price[shift.price]);
  }
  for (const auto& [var, c] : s.err.terms()) add(var, -en * c);
  ilp::Objective objective;
  for (std::size_t j = 0; j < coeff.size(); ++j)
    objective.expr.add(static_cast<ilp::VarId>(j), coeff[j]);
  return objective;
}

AllocationResult allocate_ilp(const IlpStructure& s,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config) {
  AllocationResult out;
  obs::TraceSpan build_span("ilp.build_model", "ilp",
                            obs::TimeSink{&out.stats.model_build_seconds});
  const ilp::Objective objective = price_objective(s, table, config);
  build_span.end();
  const ilp::Model& model = s.model;
  const auto& types = s.types;
  const int ntypes = static_cast<int>(types.size());
  const int num_units = static_cast<int>(s.x.size());
  out.stats.num_registers = static_cast<int>(s.registers.size());
  out.stats.num_classes = s.num_classes;
  out.stats.num_uses = s.num_uses;

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
  const ilp::Solution solution =
      ilp::solve_milp(model, objective, config.solver);
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
    const std::vector<ilp::VarId>& xu = s.x[static_cast<std::size_t>(u)];
    if (have_solution) {
      for (int ti = 0; ti < ntypes; ++ti) {
        const ilp::VarId xv = xu[static_cast<std::size_t>(ti)];
        if (xv >= 0 && solution.value(xv) > 0.5)
          chosen[static_cast<std::size_t>(u)] = ti;
      }
    }
    if (chosen[static_cast<std::size_t>(u)] < 0) {
      // Defensive fallback: binary64 (or the last feasible type).
      for (int ti = 0; ti < ntypes; ++ti)
        if (xu[static_cast<std::size_t>(ti)] >= 0 &&
            (chosen[static_cast<std::size_t>(u)] < 0 ||
             types[static_cast<std::size_t>(ti)] == numrep::kBinary64))
          chosen[static_cast<std::size_t>(u)] = ti;
    }
  }

  for (std::size_t r = 0; r < s.registers.size(); ++r) {
    const int ti = chosen[static_cast<std::size_t>(s.unit_of[r])];
    const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
    ConcreteType ct{fmt, 0};
    if (fmt.is_fixed()) {
      const ilp::VarId zv = s.z[r][static_cast<std::size_t>(ti)];
      int frac = 0;
      if (zv >= 0 && have_solution)
        frac = static_cast<int>(std::floor(solution.value(zv) + 1e-6));
      else if (zv >= 0)
        frac = static_cast<int>(model.variables()[static_cast<std::size_t>(zv)].upper);
      ct.frac_bits = std::clamp(frac, 0, fmt.width() - 1);
    }
    out.assignment.set(s.registers[r], ct);
  }

  // ---- Instruction mix (Table V metric). ----
  for (const auto& bb : s.function->blocks())
    for (const auto& inst : bb->instructions())
      if (inst->is_tunable_arithmetic())
        ++out.stats.instruction_mix[cost_class(out.assignment.of(inst.get()))];

  return out;
}

IlpStructure build_ilp_structure(const ir::Function& f,
                                 const vra::RangeMap& ranges,
                                 const TuningConfig& config) {
  IlpStructure s;
  obs::TraceSpan span("ilp.build_structure", "ilp",
                      obs::TimeSink{&s.build_seconds});
  s.types = config.types;
  s.literal_model = config.literal_model;
  s.err_zero_floor = config.err_zero_floor;
  s.function = &f;
  const TypeClasses classes = compute_type_classes(f);
  const auto& types = s.types;
  const int ntypes = static_cast<int>(types.size());
  LUIS_ASSERT(ntypes > 0, "empty candidate type set");
  for (const NumericFormat& t : types)
    LUIS_ASSERT(numrep::format_ops(t).executable(t),
                "candidate type cannot execute");
  const bool literal = s.literal_model;

  s.registers = classes.registers;
  s.num_classes = classes.num_classes();
  s.num_uses = static_cast<int>(classes.uses.size());

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
  for (const ir::Value* v : s.registers) s.unit_of.push_back(unit_of(v));

  // Each distinct op-time lookup gets one slot in `s.prices`.
  std::map<std::pair<std::string, std::string>, std::size_t> price_slot;
  auto price = [&](std::string op, std::string type_class) {
    const auto [it, added] = price_slot.try_emplace(
        {std::move(op), std::move(type_class)}, s.prices.size());
    if (added) s.prices.push_back(it->first);
    return it->second;
  };
  std::vector<std::string> type_class(static_cast<std::size_t>(ntypes));
  for (int ti = 0; ti < ntypes; ++ti)
    type_class[static_cast<std::size_t>(ti)] =
        class_of_format(types[static_cast<std::size_t>(ti)]);

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
  ilp::Model& model = s.model;
  auto& x = s.x;
  x.assign(static_cast<std::size_t>(num_units),
           std::vector<ilp::VarId>(static_cast<std::size_t>(ntypes), -1));
  for (int u = 0; u < num_units; ++u) {
    ilp::LinearExpr one_hot;
    for (int ti = 0; ti < ntypes; ++ti) {
      if (!unit_feasible(u, ti)) continue;
      const ilp::VarId var = model.add_binary();
      x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)] = var;
      one_hot.add(var, 1.0);
    }
    model.add_eq(std::move(one_hot), 1.0);
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
  auto& z = s.z;
  z.assign(classes.registers.size(),
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
      const ilp::VarId zv =
          model.add_continuous(0.0, static_cast<double>(fixmax));
      z[r][static_cast<std::size_t>(ti)] = zv;
      // z <= M * x : no fractional bits unless the type is chosen.
      model.add_le(ilp::LinearExpr().add(zv, 1.0).add(xv, -kBigM), 0.0);
    }
  }

  // ---- Ex: execution time of tunable arithmetic, one term per feasible
  // type of each instruction. ----
  for (const auto& bb : f.blocks()) {
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_tunable_arithmetic()) continue;
      const int u = unit_of(inst.get());
      // The interpreters bill arithmetic under the same key.
      const char* op = ir::opcode_name(inst->opcode());
      for (int ti = 0; ti < ntypes; ++ti) {
        const ilp::VarId xv =
            x[static_cast<std::size_t>(u)][static_cast<std::size_t>(ti)];
        if (xv < 0) continue;
        s.ex.push_back(
            {xv, price(op, type_class[static_cast<std::size_t>(ti)])});
      }
      s.ex_ends.push_back(s.ex.size());
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
  for (const auto& [pair, count] : pair_count) {
    const auto [ua, ub] = pair;
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
        const ilp::VarId y = model.add_continuous(0.0, 1.0);
        // x_a + x_b <= y + 1
        model.add_le(ilp::LinearExpr().add(xa, 1.0).add(xb, 1.0).add(y, -1.0),
                     1.0);
        s.cast.push_back(
            {y, price("cast_" + type_class[static_cast<std::size_t>(ta)],
                      type_class[static_cast<std::size_t>(tb)])});
      }
    }
    s.cast_pairs.emplace_back(count, s.cast.size());
  }

  // ---- Cfix: fixed point realignment (shift) casts per use. ----
  for (const UseEdge& use : classes.uses) {
    const int ra = reg_index.at(use.used);
    const int rb = reg_index.at(use.user);
    for (int ti = 0; ti < ntypes; ++ti) {
      const NumericFormat& fmt = types[static_cast<std::size_t>(ti)];
      if (!fmt.is_fixed()) continue;
      const ilp::VarId za = z[static_cast<std::size_t>(ra)][static_cast<std::size_t>(ti)];
      const ilp::VarId zb = z[static_cast<std::size_t>(rb)][static_cast<std::size_t>(ti)];
      if (za < 0 || zb < 0) continue;
      const ilp::VarId y1 = model.add_continuous(0.0, 1.0);
      const ilp::VarId y2 = model.add_continuous(0.0, 1.0);
      model.add_le(ilp::LinearExpr().add(za, 1.0).add(zb, -1.0).add(y1, -kBigM), 0.0);
      model.add_le(ilp::LinearExpr().add(zb, 1.0).add(za, -1.0).add(y2, -kBigM), 0.0);
      s.shifts.push_back({y1, y2, price("cast_fix", "fix")});
    }
  }

  // ---- Err: total IEBW (maximized). ----
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
          s.err.add(zv, 1.0);
          best = std::max(best, model.variables()[static_cast<std::size_t>(zv)].upper);
        }
      } else {
        // Literal Definition 2: max IEBW over the interval, i.e. the
        // resolution at the smallest representable magnitude. This is
        // what makes wide floats dominate the Err term for ranges that
        // approach zero — and what reproduces the paper's Balanced
        // behaviour (Table V: mostly binary64 at W1 = W2).
        const double iebw = static_cast<double>(numrep::iebw_of_range_best_case(
            fmt, range.lo, range.hi, 0, s.err_zero_floor));
        s.err.add(xv, iebw);
        best = std::max(best, std::abs(iebw));
      }
    }
    s.err_max += best;
  }
  span.end();
  return s;
}

AllocationResult allocate_ilp(const ir::Function& f, const vra::RangeMap& ranges,
                              const platform::OpTimeTable& table,
                              const TuningConfig& config) {
  const IlpStructure structure = build_ilp_structure(f, ranges, config);
  AllocationResult out = allocate_ilp(structure, table, config);
  out.stats.model_build_seconds += structure.build_seconds;
  return out;
}

} // namespace luis::core

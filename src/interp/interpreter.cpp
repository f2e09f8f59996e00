#include "interp/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "numrep/quantize.hpp"
#include "numrep/registry.hpp"
#include "support/diag.hpp"

namespace luis::interp {

using ir::Instruction;
using ir::Opcode;
using ir::ScalarType;
using numrep::ConcreteType;

long CostCounters::total_real_ops() const {
  long n = 0;
  for (const auto& [key, count] : ops) n += count;
  return n;
}

std::string cost_class(const ConcreteType& type) {
  return numrep::format_ops(type).cost_class(type.format);
}

std::pair<double, double> widen_observed_range(std::pair<double, double> observed,
                                               double margin) {
  const auto [lo, hi] = observed;
  const double mag = std::max({std::abs(lo), std::abs(hi), 1e-6});
  return {lo - margin * mag, hi + margin * mag};
}

int ErrorCell::bucket(double v) {
  if (std::isnan(v)) return kBuckets - 1;
  if (!(v > 1e-30)) return 0;
  const double lg = std::ceil(std::log10(v));
  if (lg > 2.0) return kBuckets - 1;
  return static_cast<int>(lg) + 30;
}

double ErrorCell::bucket_upper_bound(int i) {
  if (i >= kBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return std::pow(10.0, i - 30);
}

void ErrorCell::observe(double abs_err, double rel_err) {
  ++count;
  sum_abs += abs_err;
  if (abs_err > max_abs || std::isnan(abs_err))
    max_abs = std::isnan(abs_err)
                  ? std::numeric_limits<double>::infinity()
                  : abs_err;
  sum_rel += rel_err;
  if (rel_err > max_rel || std::isnan(rel_err))
    max_rel = std::isnan(rel_err)
                  ? std::numeric_limits<double>::infinity()
                  : rel_err;
  ++hist_abs[bucket(abs_err)];
  ++hist_rel[bucket(rel_err)];
}

void ErrorCell::merge(const ErrorCell& other) {
  count += other.count;
  sum_abs += other.sum_abs;
  max_abs = std::max(max_abs, other.max_abs);
  sum_rel += other.sum_rel;
  max_rel = std::max(max_rel, other.max_rel);
  for (int i = 0; i < kBuckets; ++i) {
    hist_abs[i] += other.hist_abs[i];
    hist_rel[i] += other.hist_rel[i];
  }
}

double shadow_op2(Opcode op, double a, double b) {
  switch (op) {
  case Opcode::Add: return a + b;
  case Opcode::Sub: return a - b;
  case Opcode::Mul: return a * b;
  case Opcode::Div: return a / b;
  case Opcode::Rem: return std::fmod(a, b);
  case Opcode::Pow: return std::pow(a, b);
  case Opcode::Min: return std::fmin(a, b);
  case Opcode::Max: return std::fmax(a, b);
  default: LUIS_UNREACHABLE("not a binary real op");
  }
}

double shadow_op1(Opcode op, double a) {
  switch (op) {
  case Opcode::Neg: return -a;
  case Opcode::Abs: return std::abs(a);
  case Opcode::Sqrt: return std::sqrt(a);
  case Opcode::Exp: return std::exp(a);
  default: LUIS_UNREACHABLE("not a unary real op");
  }
}

namespace {

struct Slot {
  double real = 0.0;
  std::int64_t integer = 0;
  bool boolean = false;
};

class Machine {
public:
  Machine(const ir::Function& f, const TypeAssignment& types, ArrayStore& store,
          const RunOptions& opt)
      : f_(f), types_(types), store_(store), opt_(opt) {}

  RunResult run() {
    RunResult result;
    // Index instructions and bind array buffers.
    std::size_t n = 0;
    for (const auto& bb : f_.blocks())
      for (const auto& inst : bb->instructions()) slot_index_[inst.get()] = n++;
    slots_.assign(n, Slot{});

    for (const auto& arr : f_.arrays()) {
      auto& buf = store_[arr->name()];
      buf.resize(static_cast<std::size_t>(arr->element_count()), 0.0);
      // Quantize initial contents into the array's representation.
      const ConcreteType at = types_.of(arr.get());
      for (double& v : buf) {
        v = numrep::quantize(at, v);
        if (opt_.track_array_ranges) observe(arr.get(), v);
      }
      buffers_[arr.get()] = &buf;
    }

    const ir::BasicBlock* prev = nullptr;
    const ir::BasicBlock* cur = f_.entry();
    std::vector<std::pair<const Instruction*, Slot>> phi_updates;
    while (cur) {
      // Phis read their incoming values simultaneously.
      phi_updates.clear();
      std::size_t first_non_phi = 0;
      const auto& insts = cur->instructions();
      while (first_non_phi < insts.size() && insts[first_non_phi]->is_phi()) {
        const Instruction* phi = insts[first_non_phi].get();
        int incoming = -1;
        for (std::size_t i = 0; i < phi->incoming_blocks().size(); ++i)
          if (phi->incoming_blocks()[i] == prev) incoming = static_cast<int>(i);
        if (incoming < 0) {
          result.error = "phi has no incoming edge for predecessor";
          return result;
        }
        Slot s;
        const ir::Value* in = phi->operand(static_cast<std::size_t>(incoming));
        if (phi->type() == ScalarType::Int) {
          s.integer = int_of(in);
        } else if (in->is_constant()) {
          s.real = numrep::quantize(types_.of(phi), real_of(in));
        } else {
          s.real = convert(real_of(in), types_.of(in), types_.of(phi));
        }
        phi_updates.emplace_back(phi, s);
        ++first_non_phi;
      }
      for (const auto& [phi, slot] : phi_updates) slots_[slot_index_[phi]] = slot;
      if (opt_.track_register_ranges)
        for (const auto& [phi, slot] : phi_updates)
          if (phi->type() == ScalarType::Real) observe_register(phi, slot.real);
      result.steps += static_cast<long>(phi_updates.size());

      const ir::BasicBlock* next = nullptr;
      for (std::size_t i = first_non_phi; i < insts.size(); ++i) {
        const Instruction* inst = insts[i].get();
        if (++result.steps > opt_.max_steps) {
          result.error = "step limit exceeded";
          return result;
        }
        if (inst->is_terminator()) {
          if (inst->opcode() == Opcode::Ret) {
            result.ok = true;
            result.counters = std::move(counters_);
            result.array_ranges = std::move(observed_);
            result.register_ranges = std::move(observed_registers_);
            return result;
          }
          if (inst->opcode() == Opcode::Br) {
            next = inst->target(0);
          } else {
            next = bool_of(inst->operand(0)) ? inst->target(0) : inst->target(1);
          }
          count_non_real();
          break;
        }
        if (!execute(inst)) {
          result.error = std::move(trap_);
          return result;
        }
        if (opt_.track_register_ranges && inst->type() == ScalarType::Real)
          observe_register(inst, slots_[slot_index_.at(inst)].real);
      }
      if (!next) {
        result.error = "block fell through without a terminator";
        return result;
      }
      prev = cur;
      cur = next;
    }
    result.error = "no entry block";
    return result;
  }

private:
  double real_of(const ir::Value* v) {
    if (v->kind() == ir::Value::Kind::ConstReal)
      return static_cast<const ir::ConstReal*>(v)->value();
    return slots_[slot_index_.at(static_cast<const Instruction*>(v))].real;
  }
  std::int64_t int_of(const ir::Value* v) {
    if (v->kind() == ir::Value::Kind::ConstInt)
      return static_cast<const ir::ConstInt*>(v)->value();
    return slots_[slot_index_.at(static_cast<const Instruction*>(v))].integer;
  }
  bool bool_of(const ir::Value* v) {
    return slots_[slot_index_.at(static_cast<const Instruction*>(v))].boolean;
  }

  /// Converts a value between representations, counting the cast.
  /// Constants are materialized directly in the target format (no cast).
  double convert(double value, const ConcreteType& from, const ConcreteType& to) {
    if (from == to) return value;
    if (opt_.count_costs)
      counters_.count_op("cast_" + cost_class(from), cost_class(to));
    return numrep::quantize(to, value);
  }

  /// Fetches a real operand for an instruction of format `target`.
  ///
  /// If `align` is set, the value is numerically converted into `target`
  /// — the semantics of add/sub-style operations, whose operands are
  /// rescaled to a common format before the ALU sees them (safe because
  /// the result's range bounds the aligned operands' magnitudes).
  ///
  /// Multiplicative and unary operations read operands in their own
  /// formats and rescale only the result (what TAFFO's generated fixed
  /// point code does); for those `align` is false: the cast is still
  /// *counted* when the formats differ, but no numeric conversion is
  /// applied, so a small result range can never saturate a large operand.
  double real_operand(const Instruction* inst, std::size_t idx,
                      const ConcreteType& target, bool align = true) {
    const ir::Value* v = inst->operand(idx);
    const double raw = real_of(v);
    if (v->is_constant())
      return align ? numrep::quantize(target, raw) : raw;
    const ConcreteType& from = types_.of(v);
    if (from == target) return raw;
    // Fixed->fixed realignment on a non-aligning op is folded into the
    // operation's own rescaling step (a multiply shifts the product by
    // fa+fb-fr regardless of the operand formats), so it is not billed.
    const bool folded_shift =
        !align && from.format.is_fixed() && target.format.is_fixed();
    if (opt_.count_costs && !folded_shift)
      counters_.count_op("cast_" + cost_class(from), cost_class(target));
    return align ? numrep::quantize(target, raw) : raw;
  }

  void count_non_real() {
    if (opt_.count_costs) ++counters_.non_real_ops;
  }

  void observe(const ir::Array* arr, double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] = observed_.try_emplace(arr->name(), v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  }

  void observe_register(const Instruction* inst, double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] = observed_registers_.try_emplace(inst, v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  }

  /// Runs one non-terminator. Returns false when it traps, with the
  /// message in trap_.
  bool execute(const Instruction* inst) {
    Slot& out = slots_[slot_index_.at(inst)];
    const ConcreteType ty = types_.of(inst);
    switch (inst->opcode()) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
    case Opcode::Rem: case Opcode::Pow: case Opcode::Min: case Opcode::Max: {
      // Additive ops align operands into the result format; multiplicative
      // ones rescale only the result.
      const bool align = inst->opcode() == Opcode::Add ||
                         inst->opcode() == Opcode::Sub ||
                         inst->opcode() == Opcode::Min ||
                         inst->opcode() == Opcode::Max;
      const double a = real_operand(inst, 0, ty, align);
      const double b = real_operand(inst, 1, ty, align);
      double r = 0.0;
      switch (inst->opcode()) {
      case Opcode::Add: r = a + b; break;
      case Opcode::Sub: r = a - b; break;
      case Opcode::Mul: r = a * b; break;
      case Opcode::Div: r = a / b; break;
      case Opcode::Rem: r = std::fmod(a, b); break;
      case Opcode::Pow: r = std::pow(a, b); break;
      case Opcode::Min: r = std::fmin(a, b); break;
      case Opcode::Max: r = std::fmax(a, b); break;
      default: break;
      }
      out.real = numrep::quantize(ty, r);
      if (opt_.count_costs)
        counters_.count_op(ir::opcode_name(inst->opcode()), cost_class(ty));
      break;
    }
    case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt: case Opcode::Exp: {
      const double a = real_operand(inst, 0, ty, /*align=*/false);
      double r = 0.0;
      switch (inst->opcode()) {
      case Opcode::Neg: r = -a; break;
      case Opcode::Abs: r = std::abs(a); break;
      case Opcode::Sqrt: r = std::sqrt(a); break;
      case Opcode::Exp: r = std::exp(a); break;
      default: break;
      }
      out.real = numrep::quantize(ty, r);
      if (opt_.count_costs)
        counters_.count_op(ir::opcode_name(inst->opcode()), cost_class(ty));
      break;
    }
    case Opcode::Cast: {
      // Explicit representation change: the conversion cost is counted by
      // the operand fetch.
      out.real = real_operand(inst, 0, ty);
      break;
    }
    case Opcode::IntToReal: {
      out.real = numrep::quantize(ty, static_cast<double>(int_of(inst->operand(0))));
      if (opt_.count_costs)
        counters_.count_op("cast_fix", cost_class(ty)); // int->real conversion
      break;
    }
    case Opcode::Load: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(0));
      const std::optional<std::size_t> at = flat_index(inst, arr, 1);
      if (!at) return false;
      out.real = convert((*buffers_.at(arr))[*at], types_.of(arr), ty);
      count_non_real();
      break;
    }
    case Opcode::Store: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(1));
      const std::optional<std::size_t> cell = flat_index(inst, arr, 2);
      if (!cell) return false;
      const ConcreteType at = types_.of(arr);
      const double v = real_operand(inst, 0, at);
      (*buffers_.at(arr))[*cell] = v;
      if (opt_.track_array_ranges) observe(arr, v);
      count_non_real();
      break;
    }
    case Opcode::IAdd: out.integer = int_of(inst->operand(0)) + int_of(inst->operand(1)); count_non_real(); break;
    case Opcode::ISub: out.integer = int_of(inst->operand(0)) - int_of(inst->operand(1)); count_non_real(); break;
    case Opcode::IMul: out.integer = int_of(inst->operand(0)) * int_of(inst->operand(1)); count_non_real(); break;
    case Opcode::IDiv: {
      const std::int64_t d = int_of(inst->operand(1));
      out.integer = d == 0 ? 0 : int_of(inst->operand(0)) / d;
      count_non_real();
      break;
    }
    case Opcode::IRem: {
      const std::int64_t d = int_of(inst->operand(1));
      out.integer = d == 0 ? 0 : int_of(inst->operand(0)) % d;
      count_non_real();
      break;
    }
    case Opcode::IMin: out.integer = std::min(int_of(inst->operand(0)), int_of(inst->operand(1))); count_non_real(); break;
    case Opcode::IMax: out.integer = std::max(int_of(inst->operand(0)), int_of(inst->operand(1))); count_non_real(); break;
    case Opcode::ICmp: {
      const std::int64_t a = int_of(inst->operand(0));
      const std::int64_t b = int_of(inst->operand(1));
      out.boolean = compare(inst->predicate(), a, b);
      count_non_real();
      break;
    }
    case Opcode::FCmp: {
      // Comparison happens on the stored representations directly.
      const double a = real_of(inst->operand(0));
      const double b = real_of(inst->operand(1));
      out.boolean = compare(inst->predicate(), a, b);
      count_non_real();
      break;
    }
    case Opcode::Select: {
      const bool c = bool_of(inst->operand(0));
      if (inst->type() == ScalarType::Int) {
        out.integer = int_of(inst->operand(c ? 1 : 2));
      } else {
        out.real = real_operand(inst, c ? 1 : 2, ty);
      }
      count_non_real();
      break;
    }
    case Opcode::Phi:
    case Opcode::Br:
    case Opcode::CondBr:
    case Opcode::Ret:
      LUIS_UNREACHABLE("handled by the block driver");
    }
    return true;
  }

  template <typename T> static bool compare(ir::CmpPred pred, T a, T b) {
    switch (pred) {
    case ir::CmpPred::EQ: return a == b;
    case ir::CmpPred::NE: return a != b;
    case ir::CmpPred::LT: return a < b;
    case ir::CmpPred::LE: return a <= b;
    case ir::CmpPred::GT: return a > b;
    case ir::CmpPred::GE: return a >= b;
    }
    LUIS_UNREACHABLE("unknown predicate");
  }

  /// Row-major cell of a load/store, or nullopt (with trap_ set) when an
  /// index is out of bounds.
  std::optional<std::size_t> flat_index(const Instruction* inst,
                                        const ir::Array* arr,
                                        std::size_t first_idx_operand) {
    std::size_t flat = 0;
    const auto& dims = arr->dims();
    for (std::size_t d = 0; d < dims.size(); ++d) {
      std::int64_t idx = int_of(inst->operand(first_idx_operand + d));
      if (idx < 0 || idx >= dims[d]) {
        trap_ = "array index out of bounds on " + arr->name();
        return std::nullopt;
      }
      flat = flat * static_cast<std::size_t>(dims[d]) + static_cast<std::size_t>(idx);
    }
    return flat;
  }

  const ir::Function& f_;
  const TypeAssignment& types_;
  ArrayStore& store_;
  const RunOptions& opt_;
  std::map<const Instruction*, std::size_t> slot_index_;
  std::vector<Slot> slots_;
  std::map<const ir::Array*, std::vector<double>*> buffers_;
  CostCounters counters_;
  std::map<std::string, std::pair<double, double>> observed_;
  std::map<const Instruction*, std::pair<double, double>> observed_registers_;
  std::string trap_; ///< message of the trapping instruction
};

} // namespace

TypeAssignment TypeAssignment::uniform(const ir::Function& f,
                                       ConcreteType type) {
  TypeAssignment out;
  for (const auto& arr : f.arrays()) out.set(arr.get(), type);
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ir::ScalarType::Real) out.set(inst.get(), type);
  return out;
}

RunResult run_function(const ir::Function& f, const TypeAssignment& types,
                       ArrayStore& store, const RunOptions& options) {
  return Machine(f, types, store, options).run();
}

} // namespace luis::interp

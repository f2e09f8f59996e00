#include "interp/bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "ir/printer.hpp"
#include "numrep/quantize.hpp"
#include "obs/trace.hpp"
#include "support/diag.hpp"
#include "support/statistics.hpp"
#include "support/string_utils.hpp"

namespace luis::interp {

using ir::Instruction;
using ir::Opcode;
using ir::ScalarType;
using numrep::ConcreteType;

namespace {

numrep::KernelOp2 kernel_op2(Opcode op) {
  switch (op) {
  case Opcode::Add: return numrep::KernelOp2::Add;
  case Opcode::Sub: return numrep::KernelOp2::Sub;
  case Opcode::Mul: return numrep::KernelOp2::Mul;
  case Opcode::Div: return numrep::KernelOp2::Div;
  case Opcode::Rem: return numrep::KernelOp2::Rem;
  case Opcode::Pow: return numrep::KernelOp2::Pow;
  case Opcode::Min: return numrep::KernelOp2::Min;
  case Opcode::Max: return numrep::KernelOp2::Max;
  default: LUIS_UNREACHABLE("not a binary real op");
  }
}

numrep::KernelOp1 kernel_op1(Opcode op) {
  switch (op) {
  case Opcode::Neg: return numrep::KernelOp1::Neg;
  case Opcode::Abs: return numrep::KernelOp1::Abs;
  case Opcode::Sqrt: return numrep::KernelOp1::Sqrt;
  case Opcode::Exp: return numrep::KernelOp1::Exp;
  default: LUIS_UNREACHABLE("not a unary real op");
  }
}

/// The conversion a fetch into `target` applies; null for binary64, whose
/// rounder is the identity.
numrep::QuantFn conversion_to(const ConcreteType& target) {
  return target.format == numrep::kBinary64 ? nullptr
                                            : numrep::bind_quantizer(target);
}

/// AddF64..DivF64 for those ops with a binary64 result, else Arith2.
BInst::Kind binary64_kind(Opcode op, const ConcreteType& result) {
  if (!(result.format == numrep::kBinary64)) return BInst::Kind::Arith2;
  switch (op) {
  case Opcode::Add: return BInst::Kind::AddF64;
  case Opcode::Sub: return BInst::Kind::SubF64;
  case Opcode::Mul: return BInst::Kind::MulF64;
  case Opcode::Div: return BInst::Kind::DivF64;
  default: return BInst::Kind::Arith2;
  }
}

BInst::Kind int_kind(Opcode op) {
  switch (op) {
  case Opcode::IAdd: return BInst::Kind::IAdd;
  case Opcode::ISub: return BInst::Kind::ISub;
  case Opcode::IMul: return BInst::Kind::IMul;
  case Opcode::IDiv: return BInst::Kind::IDiv;
  case Opcode::IRem: return BInst::Kind::IRem;
  case Opcode::IMin: return BInst::Kind::IMin;
  case Opcode::IMax: return BInst::Kind::IMax;
  default: LUIS_UNREACHABLE("not an int op");
  }
}

/// The compare kind for `pred` in the family starting at `eq` (the six
/// predicates are in CmpPred order in both families).
BInst::Kind compare_kind(BInst::Kind eq, ir::CmpPred pred) {
  int offset = 0;
  switch (pred) {
  case ir::CmpPred::EQ: offset = 0; break;
  case ir::CmpPred::NE: offset = 1; break;
  case ir::CmpPred::LT: offset = 2; break;
  case ir::CmpPred::LE: offset = 3; break;
  case ir::CmpPred::GT: offset = 4; break;
  case ir::CmpPred::GE: offset = 5; break;
  }
  return static_cast<BInst::Kind>(static_cast<int>(eq) + offset);
}

double const_real_value(const ir::Value* v) {
  return static_cast<const ir::ConstReal*>(v)->value();
}

/// Lowers one Function under one TypeAssignment into a CompiledProgram.
class Compiler {
public:
  Compiler(const ir::Function& f, const TypeAssignment& types)
      : f_(f), types_(types) {}

  CompiledProgram compile() {
    // Dense register slots: one per instruction, in block order (the same
    // ordinal the reference interpreter's slot map uses).
    reg_.reserve(f_.instruction_count());
    std::int32_t n = 0;
    for (const auto& bb : f_.blocks())
      for (const auto& inst : bb->instructions())
        reg_[inst.get()] = {n++, &types_.of(inst.get())};
    p_.code.reserve(static_cast<std::size_t>(n));

    p_.function_name = f_.name();
    p_.num_regs = n;
    p_.source_instruction_count = static_cast<std::size_t>(n);

    for (const auto& arr : f_.arrays()) {
      array_id_[arr.get()] = static_cast<std::int32_t>(p_.arrays.size());
      ArrayBinding ab;
      ab.name = arr->name();
      ab.element_count = arr->element_count();
      const ConcreteType at = types_.of(arr.get());
      ab.spec = spec_id(at);
      ab.init_conv = conversion_to(at);
      p_.arrays.push_back(std::move(ab));
    }

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      block_id_[f_.blocks()[i].get()] = static_cast<std::int32_t>(i);
    p_.blocks.resize(f_.blocks().size());

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      compile_block(static_cast<std::int32_t>(i), *f_.blocks()[i]);

    if (!f_.blocks().empty()) p_.entry_edge = edge_id(f_.entry(), nullptr);
    for (std::size_t e = 0; e < p_.edges.size(); ++e)
      p_.edges[e].target_pc =
          p_.blocks[static_cast<std::size_t>(block_id_.at(edge_target_[e]))].entry;
    return std::move(p_);
  }

private:
  std::int32_t reg(const ir::Value* v) const { return reg_.at(v).reg; }
  /// An instruction's type, looked up in the assignment once.
  const ConcreteType& type_of(const ir::Value* v) const {
    return *reg_.at(v).type;
  }

  /// The counter slot of `op` on `type`.
  std::int32_t op_counter(const char* op, const ConcreteType& type) {
    return counter_id(op, type_id(type), -1);
  }
  /// The counter slot of a cast from `from` to `to`.
  std::int32_t cast_counter(const ConcreteType& from, const ConcreteType& to) {
    return counter_id(nullptr, type_id(from), type_id(to));
  }
  /// A counter slot is one (op, type class) key of the platform tables.
  /// Lookups are cached by (opcode name, type, type), with the types as
  /// indices into types_seen_, so a hit builds no string; a miss builds
  /// the key and reuses the slot of an equal one (an int-to-real
  /// conversion and a cast from fixed point share "cast_fix").
  std::int32_t counter_id(const char* op, std::int32_t a, std::int32_t b) {
    const auto key = std::make_tuple(op, a, b);
    const auto it = counter_ids_.find(key);
    if (it != counter_ids_.end()) return it->second;
    const std::string& cls_a = cost_classes_[static_cast<std::size_t>(a)];
    const std::pair<std::string, std::string> names =
        op != nullptr ? std::make_pair(std::string(op), cls_a)
                      : std::make_pair("cast_" + cls_a,
                                       cost_classes_[static_cast<std::size_t>(b)]);
    auto slot = std::find(p_.counter_keys.begin(), p_.counter_keys.end(), names);
    if (slot == p_.counter_keys.end())
      slot = p_.counter_keys.insert(slot, names);
    const auto id = static_cast<std::int32_t>(slot - p_.counter_keys.begin());
    counter_ids_.emplace(key, id);
    return id;
  }

  /// Index of `type` in types_seen_ (with its cost class beside it).
  std::int32_t type_id(const ConcreteType& type) {
    for (std::size_t i = 0; i < types_seen_.size(); ++i)
      if (types_seen_[i] == type) return static_cast<std::int32_t>(i);
    types_seen_.push_back(type);
    cost_classes_.push_back(cost_class(type));
    return static_cast<std::int32_t>(types_seen_.size() - 1);
  }

  std::int32_t spec_id(const ConcreteType& type) {
    for (std::size_t i = 0; i < spec_types_.size(); ++i)
      if (spec_types_[i] == type) return static_cast<std::int32_t>(i);
    spec_types_.push_back(type);
    p_.specs.push_back(numrep::make_quant_spec(type));
    return static_cast<std::int32_t>(p_.specs.size() - 1);
  }

  std::int32_t message_id(const std::string& message) {
    for (std::size_t i = 0; i < p_.messages.size(); ++i)
      if (p_.messages[i] == message) return static_cast<std::int32_t>(i);
    p_.messages.push_back(message);
    return static_cast<std::int32_t>(p_.messages.size() - 1);
  }

  /// A register slot that holds a constant operand: `value` in the
  /// quantized run, `raw` in the shadow.
  std::int32_t constant_slot(Reg value, double raw) {
    p_.constants.push_back(value);
    p_.shadow_constants.push_back(raw);
    return p_.num_regs + static_cast<std::int32_t>(p_.constants.size() - 1);
  }

  IntArg int_arg(const ir::Value* v) {
    IntArg a;
    if (v->kind() == ir::Value::Kind::ConstInt) {
      Reg c;
      c.integer = static_cast<const ir::ConstInt*>(v)->value();
      a.reg = constant_slot(c, 0.0);
    } else {
      a.reg = reg(v);
    }
    return a;
  }

  /// Resolves a real operand with the reference interpreter's
  /// real_operand() semantics: constants materialize in the target format
  /// when aligned (raw otherwise, never billed); register operands bill a
  /// cast when the formats differ — except the fixed->fixed realignment of
  /// a non-aligning op, which is folded into the op's own rescale — and
  /// are numerically converted only when aligned.
  RealArg real_arg(const ir::Value* v, const ConcreteType& target,
                   bool align) {
    RealArg a;
    if (v->is_constant()) {
      const double raw = const_real_value(v);
      Reg c;
      c.real = align ? numrep::quantize(target, raw) : raw;
      a.reg = constant_slot(c, raw);
      return a;
    }
    a.reg = reg(v);
    const ConcreteType& from = type_of(v);
    if (from == target) return a;
    const bool folded_shift =
        !align && from.format.is_fixed() && target.format.is_fixed();
    if (!folded_shift)
      a.cast_counter = cast_counter(from, target);
    if (align) {
      a.conv = conversion_to(target);
      a.spec = spec_id(target);
    }
    return a;
  }

  /// The phi moves for entering `to` from `from` (nullptr = function
  /// entry), deduplicated per edge. A phi with no matching incoming edge
  /// turns the whole edge into a trap, exactly like the reference
  /// interpreter erroring before it commits the batch.
  std::int32_t edge_id(const ir::BasicBlock* to, const ir::BasicBlock* from) {
    const auto key = std::make_pair(to, from);
    const auto it = edge_ids_.find(key);
    if (it != edge_ids_.end()) return it->second;

    // Resolve the incoming operand of each leading phi once.
    const auto& insts = to->instructions();
    std::vector<std::pair<const Instruction*, int>> phis;
    bool trap = false;
    for (std::size_t i = 0; i < insts.size() && insts[i]->is_phi(); ++i) {
      const Instruction* phi = insts[i].get();
      int incoming = -1;
      for (std::size_t k = 0; k < phi->incoming_blocks().size(); ++k)
        if (phi->incoming_blocks()[k] == from) incoming = static_cast<int>(k);
      if (incoming < 0) {
        trap = true;
        break;
      }
      phis.emplace_back(phi, incoming);
    }

    EdgeMoves e;
    e.start = static_cast<std::int32_t>(p_.moves.size());
    if (trap) {
      e.trap_msg = message_id("phi has no incoming edge for predecessor");
    } else {
      for (const auto& [phi, incoming] : phis) {
        PhiMove m;
        m.dst = reg(phi);
        const ir::Value* in = phi->operand(static_cast<std::size_t>(incoming));
        if (phi->type() == ScalarType::Int) {
          m.isrc = int_arg(in);
        } else {
          m.is_real = true;
          const ConcreteType& to_ty = type_of(phi);
          if (in->is_constant()) {
            Reg c;
            c.real = numrep::quantize(to_ty, const_real_value(in));
            m.rsrc.reg = constant_slot(c, const_real_value(in));
          } else {
            m.rsrc.reg = reg(in);
            const ConcreteType& from_ty = type_of(in);
            if (!(from_ty == to_ty)) {
              m.rsrc.cast_counter = cast_counter(from_ty, to_ty);
              m.rsrc.conv = conversion_to(to_ty);
              m.rsrc.spec = spec_id(to_ty);
            }
          }
        }
        p_.moves.push_back(m);
        ++e.count;
      }
      // Committing in order is exact unless a move reads a register an
      // earlier move of the edge writes.
      for (std::int32_t i = 0; i < e.count; ++i) {
        const PhiMove& m = p_.moves[static_cast<std::size_t>(e.start + i)];
        const std::int32_t src = m.is_real ? m.rsrc.reg : m.isrc.reg;
        for (std::int32_t j = 0; j < i; ++j)
          if (p_.moves[static_cast<std::size_t>(e.start + j)].dst == src)
            e.staged = true;
      }
    }
    const auto id = static_cast<std::int32_t>(p_.edges.size());
    p_.edges.push_back(e);
    edge_target_.push_back(to);
    edge_ids_.emplace(key, id);
    return id;
  }

  void compile_block(std::int32_t id, const ir::BasicBlock& bb) {
    p_.blocks[static_cast<std::size_t>(id)].entry =
        static_cast<std::int32_t>(p_.code.size());
    const auto& insts = bb.instructions();
    std::size_t i = 0;
    while (i < insts.size() && insts[i]->is_phi()) ++i; // edges carry these
    bool terminated = false;
    for (; i < insts.size(); ++i) {
      const Instruction* inst = insts[i].get();
      LUIS_ASSERT(!inst->is_phi(), "phi in non-leading position");
      if (inst->is_terminator()) {
        compile_terminator(&bb, inst);
        terminated = true;
        break;
      }
      compile_instruction(inst);
    }
    if (!terminated) {
      BInst bi;
      bi.kind = BInst::Kind::Trap;
      bi.trap_msg = message_id("block fell through without a terminator");
      p_.code.push_back(bi);
    }
  }

  void compile_terminator(const ir::BasicBlock* from, const Instruction* inst) {
    BInst bi;
    bi.op = inst->opcode();
    bi.src = reg(inst);
    switch (inst->opcode()) {
    case Opcode::Ret:
      bi.kind = BInst::Kind::Ret;
      break;
    case Opcode::Br:
      bi.kind = BInst::Kind::Br;
      bi.edge0 = edge_id(inst->target(0), from);
      break;
    case Opcode::CondBr:
      bi.kind = BInst::Kind::CondBr;
      bi.cond = reg(inst->operand(0));
      bi.edge0 = edge_id(inst->target(0), from);
      bi.edge1 = edge_id(inst->target(1), from);
      break;
    default: LUIS_UNREACHABLE("not a terminator");
    }
    p_.code.push_back(bi);
  }

  void compile_instruction(const Instruction* inst) {
    BInst bi;
    bi.op = inst->opcode();
    bi.dst = reg(inst);
    bi.src = bi.dst;
    const ConcreteType& ty = type_of(inst);
    switch (inst->opcode()) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
    case Opcode::Rem: case Opcode::Pow: case Opcode::Min: case Opcode::Max: {
      // Additive ops align operands into the result format; multiplicative
      // ones rescale only the result.
      const bool align = inst->opcode() == Opcode::Add ||
                         inst->opcode() == Opcode::Sub ||
                         inst->opcode() == Opcode::Min ||
                         inst->opcode() == Opcode::Max;
      bi.a = real_arg(inst->operand(0), ty, align);
      bi.b = real_arg(inst->operand(1), ty, align);
      bi.op_counter = op_counter(ir::opcode_name(inst->opcode()), ty);
      bi.kind = binary64_kind(inst->opcode(), ty);
      bi.kernel2 = numrep::bind_kernel2(kernel_op2(inst->opcode()), ty);
      bi.spec = spec_id(ty);
      break;
    }
    case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt: case Opcode::Exp:
      bi.kind = BInst::Kind::Arith1;
      bi.a = real_arg(inst->operand(0), ty, /*align=*/false);
      bi.kernel1 = numrep::bind_kernel1(kernel_op1(inst->opcode()), ty);
      bi.spec = spec_id(ty);
      bi.op_counter = op_counter(ir::opcode_name(inst->opcode()), ty);
      break;
    case Opcode::Cast:
      // Explicit representation change: the conversion cost is carried by
      // the operand fetch.
      bi.kind = BInst::Kind::CastReal;
      bi.a = real_arg(inst->operand(0), ty, /*align=*/true);
      break;
    case Opcode::IntToReal:
      bi.kind = BInst::Kind::IntToReal;
      bi.ia = int_arg(inst->operand(0));
      bi.a.conv = conversion_to(ty);
      bi.a.spec = spec_id(ty);
      bi.op_counter = op_counter("cast_fix", ty);
      break;
    case Opcode::Load: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(0));
      bi.kind = BInst::Kind::Load;
      bi.array = array_id_.at(arr);
      compile_indices(bi, inst, 1, arr);
      const ConcreteType at = types_.of(arr);
      if (!(at == ty)) {
        bi.a.cast_counter = cast_counter(at, ty);
        bi.a.conv = conversion_to(ty);
        bi.a.spec = spec_id(ty);
      }
      break;
    }
    case Opcode::Store: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(1));
      bi.kind = BInst::Kind::Store;
      bi.array = array_id_.at(arr);
      bi.a = real_arg(inst->operand(0), types_.of(arr), /*align=*/true);
      compile_indices(bi, inst, 2, arr);
      break;
    }
    case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
    case Opcode::IDiv: case Opcode::IRem: case Opcode::IMin:
    case Opcode::IMax:
      bi.kind = int_kind(inst->opcode());
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::ICmp:
      bi.kind = compare_kind(BInst::Kind::ICmpEQ, inst->predicate());
      bi.pred = inst->predicate();
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::FCmp:
      // Comparison happens on the stored representations directly.
      bi.kind = compare_kind(BInst::Kind::FCmpEQ, inst->predicate());
      bi.pred = inst->predicate();
      bi.a = real_arg(inst->operand(0), ty, /*align=*/false);
      bi.b = real_arg(inst->operand(1), ty, /*align=*/false);
      bi.a.cast_counter = bi.b.cast_counter = -1; // raw reads, never billed
      break;
    case Opcode::Select:
      bi.cond = reg(inst->operand(0));
      if (inst->type() == ScalarType::Int) {
        bi.kind = BInst::Kind::SelectInt;
        bi.ia = int_arg(inst->operand(1));
        bi.ib = int_arg(inst->operand(2));
      } else {
        bi.kind = BInst::Kind::SelectReal;
        bi.a = real_arg(inst->operand(1), ty, /*align=*/true);
        bi.b = real_arg(inst->operand(2), ty, /*align=*/true);
      }
      break;
    case Opcode::Phi: case Opcode::Br: case Opcode::CondBr: case Opcode::Ret:
      LUIS_UNREACHABLE("handled by the block walk");
    }
    p_.code.push_back(std::move(bi));
  }

  void compile_indices(BInst& bi, const Instruction* inst,
                       std::size_t first_operand, const ir::Array* arr) {
    bi.index_start = static_cast<std::int32_t>(p_.index_args.size());
    bi.index_count = static_cast<std::int32_t>(arr->dims().size());
    for (std::size_t d = 0; d < arr->dims().size(); ++d)
      p_.index_args.push_back(
          {int_arg(inst->operand(first_operand + d)), arr->dims()[d]});
  }

  const ir::Function& f_;
  const TypeAssignment& types_;
  CompiledProgram p_;
  std::map<std::tuple<const char*, std::int32_t, std::int32_t>, std::int32_t>
      counter_ids_;
  std::vector<ConcreteType> types_seen_;
  std::vector<std::string> cost_classes_; ///< parallel to types_seen_
  std::vector<ConcreteType> spec_types_; ///< parallel to p_.specs
  /// Each instruction's register slot and assigned type.
  struct Slot {
    std::int32_t reg;
    const ConcreteType* type;
  };
  std::unordered_map<const ir::Value*, Slot> reg_;
  std::unordered_map<const ir::BasicBlock*, std::int32_t> block_id_;
  std::map<const ir::Array*, std::int32_t> array_id_;
  std::map<std::pair<const ir::BasicBlock*, const ir::BasicBlock*>,
           std::int32_t>
      edge_ids_;
  std::vector<const ir::BasicBlock*> edge_target_; ///< parallel to p_.edges
};

/// flat_index's result for a load/store whose index is out of bounds.
constexpr std::size_t kOutOfBounds = std::numeric_limits<std::size_t>::max();

/// Records the out-of-bounds trap. Out of line and cold, so the dispatch
/// loop keeps only the bounds test.
[[gnu::cold, gnu::noinline]] void trap_out_of_bounds(RunResult& result,
                                                     const std::string& array) {
  result.error = "array index out of bounds on " + array;
}

/// An observed value range, empty until its first non-NaN value. The
/// first value sets both ends, later ones widen them with std::min and
/// std::max: the map-based observers this replaced did the same.
struct Range {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  void observe(double v) {
    if (std::isnan(v)) return;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  bool empty() const { return lo > hi; }
};

/// The state of one run of a compiled program.
struct Frame {
  /// The register file, one array per field of Reg (instruction slots,
  /// then constants), so a slot is an 8-byte (or 1-byte) stride away.
  std::vector<double> reals;
  std::vector<std::int64_t> ints;
  std::vector<std::uint8_t> bools;
  std::vector<long> counts;        ///< dense cost counters
  std::vector<double*> arrays;     ///< buffer data, in binding order
  std::vector<Range> array_ranges; ///< per binding, when tracked
  std::vector<double> scratch_reals; ///< staged phi moves
  std::vector<std::int64_t> scratch_ints;
  long non_real = 0;
  // Instrumented runs only.
  std::vector<double> shadow;                   ///< per register slot
  std::vector<std::vector<double>> shadow_bufs; ///< per binding
  std::vector<double> shadow_scratch;
  std::vector<Range> reg_ranges;                ///< per instruction slot
};

#define LUIS_VM_INLINE __attribute__((always_inline))

/// The dispatch loop, from the entry edge to Ret (result.ok set) or a trap
/// (result.error set). The plain instantiation is what a run asks for when
/// it wants no shadow, no VM profile and no register ranges; the
/// instrumented one adds each of them behind its own run-time test.
template <bool Instrumented>
void dispatch(const CompiledProgram& p, const RunOptions& opt, Frame& fr,
              RunResult& result) {
  using K = BInst::Kind;
  double* const RR = fr.reals.data();
  std::int64_t* const RI = fr.ints.data();
  std::uint8_t* const RB = fr.bools.data();
  long* const C = fr.counts.data();
  const numrep::QuantSpec* const S = p.specs.data();
  const BInst* const code = p.code.data();
  const IndexArg* const IX = p.index_args.data();
  const EdgeMoves* const E = p.edges.data();
  const PhiMove* const MV = p.moves.data();
  double* const* const A = fr.arrays.data();
  Range* const AR = opt.track_array_ranges ? fr.array_ranges.data() : nullptr;
  ErrorProfile* const ep = Instrumented ? opt.error_profile : nullptr;
  VmProfile* const prof = Instrumented ? opt.vm_profile : nullptr;
  const bool track_regs = Instrumented && opt.track_register_ranges;
  double* const SH = fr.shadow.data();
  const long max_steps = opt.max_steps;
  long steps = 0;
  long non_real = 0;

  const auto finish = [&] {
    result.steps = steps;
    fr.non_real = non_real;
  };
  const auto convert = [&](const RealArg& a, double v) LUIS_VM_INLINE {
    if (a.cast_counter >= 0) ++C[a.cast_counter];
    if (a.conv) v = a.conv(S[a.spec], v);
    return v;
  };
  const auto fetch = [&](const RealArg& a) LUIS_VM_INLINE {
    return convert(a, RR[a.reg]);
  };
  const auto ival = [&](IntArg a) LUIS_VM_INLINE { return RI[a.reg]; };

  // Records the deviation of one quantized real write against its shadow
  // value. `pc` is -1 for phi moves (they have no program counter; their
  // spikes carry the move's destination register instead).
  const auto record = [&](ErrorCell& cell, double q, double s,
                          std::int32_t at_pc, std::int32_t at_src) {
    double abs_err = std::fabs(q - s);
    if (std::isnan(abs_err)) abs_err = std::numeric_limits<double>::infinity();
    double rel_err;
    if (std::fabs(s) > 0.0)
      rel_err = abs_err / std::fabs(s);
    else
      rel_err = abs_err > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
    const bool spike = rel_err > ep->spike_rel_threshold &&
                       cell.max_rel <= ep->spike_rel_threshold;
    cell.observe(abs_err, rel_err);
    if (spike) {
      if (ep->first_spike_step < 0) {
        ep->first_spike_step = steps;
        ep->first_spike_pc = at_pc;
        ep->first_spike_src = at_src;
        ep->first_spike_rel = rel_err;
      }
      obs::instant("vm.error_spike", "vm", obs::Args()
                                               .str("function", p.function_name)
                                               .num("pc", at_pc)
                                               .num("src", at_src)
                                               .num("rel", rel_err)
                                               .num("step", steps)
                                               .done());
    }
  };
  // The shadow and register-range side of a real write of `r` to
  // bi.dst; `shadow_value` computes the shadow's value of the write.
  const auto written = [&](std::int32_t pc, const BInst& bi, double r,
                           auto shadow_value) LUIS_VM_INLINE {
    if constexpr (Instrumented) {
      if (ep) {
        const double s = shadow_value();
        SH[bi.dst] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], r, s, pc, bi.src);
      }
      if (track_regs) fr.reg_ranges[static_cast<std::size_t>(bi.dst)].observe(r);
    }
  };
  // The same for phi move `ordinal` committing `q` (shadow value `s`).
  const auto moved = [&](std::int32_t ordinal, const PhiMove& m, double q,
                         double s) LUIS_VM_INLINE {
    if constexpr (Instrumented) {
      if (ep) {
        SH[m.dst] = s;
        record(ep->moves[static_cast<std::size_t>(ordinal)], q, s, -1, m.dst);
      }
      if (track_regs) fr.reg_ranges[static_cast<std::size_t>(m.dst)].observe(q);
    }
  };

  // Row-major cell of a load/store, or kOutOfBounds (with result.error
  // set) when an index is out of bounds.
  const auto flat_index = [&](const BInst& bi) LUIS_VM_INLINE {
    const IndexArg* const ix = IX + bi.index_start;
    std::size_t flat = 0;
    for (std::int32_t d = 0; d < bi.index_count; ++d) {
      const std::int64_t idx = ival(ix[d].arg);
      // One unsigned compare also catches a negative index.
      if (static_cast<std::uint64_t>(idx) >=
          static_cast<std::uint64_t>(ix[d].extent)) [[unlikely]] {
        trap_out_of_bounds(result,
                           p.arrays[static_cast<std::size_t>(bi.array)].name);
        return kOutOfBounds;
      }
      flat = flat * static_cast<std::size_t>(ix[d].extent) +
             static_cast<std::size_t>(idx);
    }
    return flat;
  };

  // Applies the phi moves of edge `id` and returns the pc it enters, or
  // -1 when the edge traps (sets result.error). A staged edge reads every
  // source before it writes a destination (simultaneous-read semantics);
  // any other edge commits its moves in order, which reads the same
  // values.
  const auto apply_edge = [&](std::int32_t id) LUIS_VM_INLINE {
    const EdgeMoves& e = E[id];
    if (e.trap_msg >= 0) [[unlikely]] {
      result.error = p.messages[static_cast<std::size_t>(e.trap_msg)];
      return -1;
    }
    if constexpr (Instrumented)
      if (prof) ++prof->edge_applications[static_cast<std::size_t>(id)];
    const PhiMove* const mv = MV + e.start;
    if (!e.staged) {
      for (std::int32_t i = 0; i < e.count; ++i) {
        const PhiMove& m = mv[i];
        if (m.is_real) {
          const double v = fetch(m.rsrc);
          RR[m.dst] = v;
          moved(e.start + i, m, v, Instrumented && ep ? SH[m.rsrc.reg] : 0.0);
        } else {
          RI[m.dst] = ival(m.isrc);
        }
      }
    } else {
      double* const TR = fr.scratch_reals.data();
      std::int64_t* const TI = fr.scratch_ints.data();
      double* const ST = fr.shadow_scratch.data();
      for (std::int32_t i = 0; i < e.count; ++i) {
        const PhiMove& m = mv[i];
        if (m.is_real) {
          TR[i] = fetch(m.rsrc);
          if (Instrumented && ep) ST[i] = SH[m.rsrc.reg];
        } else {
          TI[i] = ival(m.isrc);
        }
      }
      for (std::int32_t i = 0; i < e.count; ++i) {
        const PhiMove& m = mv[i];
        if (m.is_real) {
          RR[m.dst] = TR[i];
          moved(e.start + i, m, TR[i], Instrumented && ep ? ST[i] : 0.0);
        } else {
          RI[m.dst] = TI[i];
        }
      }
    }
    steps += e.count;
    return e.target_pc;
  };

  const auto binary64 = [&](std::int32_t pc, const BInst& bi,
                            auto op) LUIS_VM_INLINE {
    const double a = fetch(bi.a);
    const double b = fetch(bi.b);
    const double r = op(a, b);
    RR[bi.dst] = r;
    ++C[bi.op_counter];
    written(pc, bi, r, [&] { return op(SH[bi.a.reg], SH[bi.b.reg]); });
  };
  const auto int_op = [&](const BInst& bi, auto op) LUIS_VM_INLINE {
    RI[bi.dst] = op(ival(bi.ia), ival(bi.ib));
    ++non_real;
  };
  const auto int_cmp = [&](const BInst& bi, auto holds) LUIS_VM_INLINE {
    RB[bi.dst] = holds(ival(bi.ia), ival(bi.ib));
    ++non_real;
  };
  const auto real_cmp = [&](const BInst& bi, auto holds) LUIS_VM_INLINE {
    const bool c = holds(RR[bi.a.reg], RR[bi.b.reg]);
    RB[bi.dst] = c;
    if constexpr (Instrumented) {
      // Control stays lockstep on the quantized outcome; a disagreement
      // with the shadow values means an independent binary64 run could
      // take a different path from here on.
      if (ep && holds(SH[bi.a.reg], SH[bi.b.reg]) != c) {
        if (ep->control_divergences == 0)
          ep->first_control_divergence_step = steps;
        ++ep->control_divergences;
      }
    }
    ++non_real;
  };

  const std::int32_t entry = apply_edge(p.entry_edge);
  if (entry < 0) return finish();
  const BInst* ip = code + entry;

  for (;;) {
    const BInst& bi = *ip;
    const auto pc = static_cast<std::int32_t>(ip - code); // instrumented only
    if (++steps > max_steps) [[unlikely]] {
      // A trap does not count a step, so it wins at the limit.
      if (bi.kind == K::Trap) {
        --steps;
        result.error = p.messages[static_cast<std::size_t>(bi.trap_msg)];
      } else {
        result.error = "step limit exceeded";
      }
      return finish();
    }
    if constexpr (Instrumented)
      if (prof && bi.kind != K::Trap)
        ++prof->instr_executions[static_cast<std::size_t>(pc)];
    switch (bi.kind) {
    case K::Arith2: {
      const double a = fetch(bi.a);
      const double b = fetch(bi.b);
      const double r = bi.kernel2(S[bi.spec], a, b);
      RR[bi.dst] = r;
      ++C[bi.op_counter];
      written(pc, bi, r,
              [&] { return shadow_op2(bi.op, SH[bi.a.reg], SH[bi.b.reg]); });
      ++ip;
      break;
    }
    case K::AddF64: binary64(pc, bi, std::plus<>()); ++ip; break;
    case K::SubF64: binary64(pc, bi, std::minus<>()); ++ip; break;
    case K::MulF64: binary64(pc, bi, std::multiplies<>()); ++ip; break;
    case K::DivF64: binary64(pc, bi, std::divides<>()); ++ip; break;
    case K::Arith1: {
      const double r = bi.kernel1(S[bi.spec], fetch(bi.a));
      RR[bi.dst] = r;
      ++C[bi.op_counter];
      written(pc, bi, r, [&] { return shadow_op1(bi.op, SH[bi.a.reg]); });
      ++ip;
      break;
    }
    case K::CastReal: {
      // Representation change only: the shadow value passes through.
      const double r = fetch(bi.a);
      RR[bi.dst] = r;
      written(pc, bi, r, [&] { return SH[bi.a.reg]; });
      ++ip;
      break;
    }
    case K::IntToReal: {
      const std::int64_t iv = ival(bi.ia);
      double r = static_cast<double>(iv);
      if (bi.a.conv) r = bi.a.conv(S[bi.a.spec], r);
      RR[bi.dst] = r;
      ++C[bi.op_counter];
      written(pc, bi, r, [&] { return static_cast<double>(iv); });
      ++ip;
      break;
    }
    case K::Load: {
      const std::size_t ix = flat_index(bi);
      if (ix == kOutOfBounds) [[unlikely]] return finish();
      const double v = convert(bi.a, A[bi.array][ix]);
      RR[bi.dst] = v;
      ++non_real;
      written(pc, bi, v, [&] {
        return fr.shadow_bufs[static_cast<std::size_t>(bi.array)][ix];
      });
      ++ip;
      break;
    }
    case K::Store: {
      const std::size_t ix = flat_index(bi);
      if (ix == kOutOfBounds) [[unlikely]] return finish();
      const double v = fetch(bi.a);
      A[bi.array][ix] = v;
      if constexpr (Instrumented) {
        if (ep) {
          const double s = SH[bi.a.reg];
          fr.shadow_bufs[static_cast<std::size_t>(bi.array)][ix] = s;
          record(ep->instr[static_cast<std::size_t>(pc)], v, s, pc, bi.src);
        }
      }
      if (AR) AR[bi.array].observe(v);
      ++non_real;
      ++ip;
      break;
    }
    case K::IAdd: int_op(bi, std::plus<>()); ++ip; break;
    case K::ISub: int_op(bi, std::minus<>()); ++ip; break;
    case K::IMul: int_op(bi, std::multiplies<>()); ++ip; break;
    case K::IDiv:
      int_op(bi,
             [](std::int64_t a, std::int64_t b) { return b == 0 ? 0 : a / b; });
      ++ip;
      break;
    case K::IRem:
      int_op(bi,
             [](std::int64_t a, std::int64_t b) { return b == 0 ? 0 : a % b; });
      ++ip;
      break;
    case K::IMin:
      int_op(bi, [](std::int64_t a, std::int64_t b) { return std::min(a, b); });
      ++ip;
      break;
    case K::IMax:
      int_op(bi, [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
      ++ip;
      break;
    case K::ICmpEQ: int_cmp(bi, std::equal_to<>()); ++ip; break;
    case K::ICmpNE: int_cmp(bi, std::not_equal_to<>()); ++ip; break;
    case K::ICmpLT: int_cmp(bi, std::less<>()); ++ip; break;
    case K::ICmpLE: int_cmp(bi, std::less_equal<>()); ++ip; break;
    case K::ICmpGT: int_cmp(bi, std::greater<>()); ++ip; break;
    case K::ICmpGE: int_cmp(bi, std::greater_equal<>()); ++ip; break;
    case K::FCmpEQ: real_cmp(bi, std::equal_to<>()); ++ip; break;
    case K::FCmpNE: real_cmp(bi, std::not_equal_to<>()); ++ip; break;
    case K::FCmpLT: real_cmp(bi, std::less<>()); ++ip; break;
    case K::FCmpLE: real_cmp(bi, std::less_equal<>()); ++ip; break;
    case K::FCmpGT: real_cmp(bi, std::greater<>()); ++ip; break;
    case K::FCmpGE: real_cmp(bi, std::greater_equal<>()); ++ip; break;
    case K::SelectReal: {
      const bool c = RB[bi.cond];
      if constexpr (Instrumented)
        if (prof && c) ++prof->select_real_first[static_cast<std::size_t>(pc)];
      // The shadow takes the side the quantized condition chose.
      const RealArg& side = c ? bi.a : bi.b;
      const double v = fetch(side);
      RR[bi.dst] = v;
      ++non_real;
      written(pc, bi, v, [&] { return SH[side.reg]; });
      ++ip;
      break;
    }
    case K::SelectInt:
      RI[bi.dst] = ival(RB[bi.cond] ? bi.ia : bi.ib);
      ++non_real;
      ++ip;
      break;
    case K::Br: {
      ++non_real;
      const std::int32_t target = apply_edge(bi.edge0);
      if (target < 0) return finish();
      ip = code + target;
      break;
    }
    case K::CondBr: {
      ++non_real;
      const std::int32_t target =
          apply_edge(RB[bi.cond] ? bi.edge0 : bi.edge1);
      if (target < 0) return finish();
      ip = code + target;
      break;
    }
    case K::Ret:
      result.ok = true;
      return finish();
    case K::Trap:
      --steps;
      result.error = p.messages[static_cast<std::size_t>(bi.trap_msg)];
      return finish();
    }
  }
}

#undef LUIS_VM_INLINE

} // namespace

CompiledProgram compile_program(const ir::Function& f,
                                const TypeAssignment& types,
                                const CompileOptions&) {
  return Compiler(f, types).compile();
}

void finalize_error_profile(
    ErrorProfile& ep, const CompiledProgram& p,
    std::span<const std::vector<double>* const> quantized,
    std::span<const std::vector<double>* const> shadow) {
  LUIS_ASSERT(quantized.size() == p.arrays.size() &&
                  shadow.size() == p.arrays.size(),
              "error-profile finalization needs one buffer pair per array");
  std::vector<std::uint8_t> is_stored(p.arrays.size(), 0);
  for (const BInst& bi : p.code)
    if (bi.kind == BInst::Kind::Store && bi.array >= 0)
      is_stored[static_cast<std::size_t>(bi.array)] = 1;

  // Whole-program MPE: the stored-to arrays concatenated in binding order,
  // shadow as the reference — the same mean_percentage_error definition
  // the sweep driver applies to its binary64 baseline.
  std::vector<double> all_q, all_s;
  for (std::size_t ai = 0; ai < p.arrays.size(); ++ai) {
    const std::vector<double>& q = *quantized[ai];
    const std::vector<double>& s = *shadow[ai];
    ArrayErrorStats st;
    st.name = p.arrays[ai].name;
    st.stored = is_stored[ai] != 0;
    st.elements = static_cast<long>(q.size());
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (!std::isfinite(q[i]) || !std::isfinite(s[i])) st.finite = false;
      double abs_err = std::fabs(q[i] - s[i]);
      if (std::isnan(abs_err))
        abs_err = std::numeric_limits<double>::infinity();
      st.max_abs = std::max(st.max_abs, abs_err);
      if (std::fabs(s[i]) > 0.0)
        st.max_rel = std::max(st.max_rel, abs_err / std::fabs(s[i]));
      else if (abs_err > 0.0)
        st.max_rel = std::numeric_limits<double>::infinity();
    }
    st.mpe = mean_percentage_error(s, q);
    if (st.stored) {
      all_q.insert(all_q.end(), q.begin(), q.end());
      all_s.insert(all_s.end(), s.begin(), s.end());
    }
    ep.shadow_arrays[st.name] = s;
    ep.arrays.push_back(std::move(st));
  }
  ep.program_mpe = mean_percentage_error(all_s, all_q);
  ep.finalized = true;
}

RunResult run_program(const CompiledProgram& p, const ir::Function& f,
                      ArrayStore& store, const RunOptions& opt) {
  RunResult result;
  LUIS_ASSERT(f.instruction_count() == p.source_instruction_count,
              "compiled program does not match the function shape");
  LUIS_ASSERT(f.arrays().size() == p.arrays.size(),
              "compiled program does not match the function arrays");

  // Shadow execution (RunOptions::error_profile): a lockstep binary64
  // value per real register and array slot, following the quantized run's
  // control flow. Only the instrumented loop touches it, so shadow-off
  // runs stay bit-identical (and pay nothing for it).
  ErrorProfile* const ep = opt.error_profile;
  Frame fr;
  if (ep) {
    ep->instr.assign(p.code.size(), ErrorCell{});
    ep->moves.assign(p.moves.size(), ErrorCell{});
    ep->first_spike_step = -1;
    ep->first_spike_pc = -1;
    ep->first_spike_src = -1;
    ep->first_spike_rel = 0.0;
    ep->control_divergences = 0;
    ep->first_control_divergence_step = -1;
    ep->arrays.clear();
    ep->program_mpe = 0.0;
    ep->finalized = false;
    ep->shadow_arrays.clear();
    fr.shadow_bufs.reserve(p.arrays.size());
  }

  // Bind array buffers by name and quantize their initial contents. The
  // shadow buffers capture the raw (pre-quantization) contents — the
  // shadow world never quantizes, including at initialization.
  const bool track_arrays = opt.track_array_ranges;
  if (track_arrays) fr.array_ranges.resize(p.arrays.size());
  std::vector<std::vector<double>*> buffers;
  buffers.reserve(p.arrays.size());
  for (std::size_t ai = 0; ai < p.arrays.size(); ++ai) {
    const ArrayBinding& ab = p.arrays[ai];
    auto& buf = store[ab.name];
    buf.resize(static_cast<std::size_t>(ab.element_count), 0.0);
    if (ep) fr.shadow_bufs.push_back(buf);
    if (ab.init_conv) {
      const numrep::QuantSpec& spec = p.specs[static_cast<std::size_t>(ab.spec)];
      for (double& v : buf) v = ab.init_conv(spec, v);
    }
    if (track_arrays)
      for (double v : buf) fr.array_ranges[ai].observe(v);
    buffers.push_back(&buf);
  }

  if (p.blocks.empty()) {
    result.error = "no entry block";
    return result;
  }

  // Buffers are not resized from here on, so their data pointers hold.
  for (std::vector<double>* buf : buffers) fr.arrays.push_back(buf->data());
  const auto slots = static_cast<std::size_t>(p.num_regs) + p.constants.size();
  fr.reals.assign(slots, 0.0);
  fr.ints.assign(slots, 0);
  fr.bools.assign(slots, 0);
  for (std::size_t k = 0; k < p.constants.size(); ++k) {
    const std::size_t slot = static_cast<std::size_t>(p.num_regs) + k;
    fr.reals[slot] = p.constants[k].real;
    fr.ints[slot] = p.constants[k].integer;
  }
  fr.counts.assign(p.counter_keys.size(), 0);
  std::size_t max_moves = 0;
  for (const EdgeMoves& e : p.edges)
    if (e.staged)
      max_moves = std::max(max_moves, static_cast<std::size_t>(e.count));
  fr.scratch_reals.resize(max_moves);
  fr.scratch_ints.resize(max_moves);
  if (ep) {
    fr.shadow.assign(static_cast<std::size_t>(p.num_regs), 0.0);
    fr.shadow.insert(fr.shadow.end(), p.shadow_constants.begin(),
                     p.shadow_constants.end());
    fr.shadow_scratch.resize(max_moves);
  }
  // Per-pc execution profile (hot-spot attribution, see obs/profile.hpp).
  if (VmProfile* const prof = opt.vm_profile) {
    prof->instr_executions.assign(p.code.size(), 0);
    prof->edge_applications.assign(p.edges.size(), 0);
    prof->select_real_first.assign(p.code.size(), 0);
  }
  const bool track_regs = opt.track_register_ranges;
  if (track_regs) fr.reg_ranges.resize(static_cast<std::size_t>(p.num_regs));

  if (ep || opt.vm_profile || track_regs)
    dispatch<true>(p, opt, fr, result);
  else
    dispatch<false>(p, opt, fr, result);
  if (!result.ok) return result;

  if (opt.count_costs) {
    for (std::size_t i = 0; i < fr.counts.size(); ++i)
      if (fr.counts[i] > 0) result.counters.ops[p.counter_keys[i]] = fr.counts[i];
    result.counters.non_real_ops = fr.non_real;
  }
  if (ep) {
    std::vector<const std::vector<double>*> qp(buffers.begin(), buffers.end());
    std::vector<const std::vector<double>*> sp;
    sp.reserve(fr.shadow_bufs.size());
    for (const auto& b : fr.shadow_bufs) sp.push_back(&b);
    finalize_error_profile(*ep, p, qp, sp);
  }
  if (track_arrays) {
    for (std::size_t ai = 0; ai < p.arrays.size(); ++ai) {
      const Range& r = fr.array_ranges[ai];
      if (r.empty()) continue;
      auto [it, fresh] =
          result.array_ranges.try_emplace(p.arrays[ai].name, r.lo, r.hi);
      if (!fresh) { // two bindings of one name share a buffer
        it->second.first = std::min(it->second.first, r.lo);
        it->second.second = std::max(it->second.second, r.hi);
      }
    }
  }
  if (track_regs) {
    // Register ordinal -> Instruction*, to attribute the ranges back to
    // the source IR.
    std::size_t r = 0;
    for (const auto& bb : f.blocks())
      for (const auto& inst : bb->instructions()) {
        const Range& range = fr.reg_ranges[r++];
        if (!range.empty())
          result.register_ranges.emplace(inst.get(),
                                         std::make_pair(range.lo, range.hi));
      }
  }
  return result;
}

std::string disassemble(const CompiledProgram& p) {
  std::string out = "program " + p.function_name +
                    format_string(": %d regs, %zu blocks, %zu counters\n",
                                  p.num_regs, p.blocks.size(),
                                  p.counter_keys.size());
  const auto constant = [&p](std::int32_t reg) -> const Reg* {
    return reg >= p.num_regs
               ? &p.constants[static_cast<std::size_t>(reg - p.num_regs)]
               : nullptr;
  };
  const auto real_arg_text = [&](const RealArg& a) {
    const Reg* c = constant(a.reg);
    std::string s = c ? format_string("#%g", c->real)
                      : format_string("r%d", a.reg);
    if (a.conv) s += "!";             // aligned into the result format
    if (a.cast_counter >= 0) s += "$"; // fetch bills a cast
    return s;
  };
  // The block an edge enters: the one whose entry is the edge's target.
  const auto block_of = [&p](std::int32_t edge) {
    const std::int32_t pc = p.edges[static_cast<std::size_t>(edge)].target_pc;
    for (std::size_t b = 0; b < p.blocks.size(); ++b)
      if (p.blocks[b].entry == pc) return static_cast<int>(b);
    return -1;
  };
  const auto int_arg_text = [&](const IntArg& a) {
    const Reg* c = constant(a.reg);
    return c ? format_string("#%lld", static_cast<long long>(c->integer))
             : format_string("r%d", a.reg);
  };
  for (std::size_t b = 0; b < p.blocks.size(); ++b) {
    out += format_string("b%zu:\n", b);
    const std::int32_t end = b + 1 < p.blocks.size()
                                 ? p.blocks[b + 1].entry
                                 : static_cast<std::int32_t>(p.code.size());
    for (std::int32_t pc = p.blocks[b].entry; pc < end; ++pc) {
      const BInst& bi = p.code[static_cast<std::size_t>(pc)];
      out += format_string("  %4d: ", pc);
      switch (bi.kind) {
      case BInst::Kind::Arith2: case BInst::Kind::AddF64:
      case BInst::Kind::SubF64: case BInst::Kind::MulF64:
      case BInst::Kind::DivF64:
        out += format_string("r%d = %s %s, %s", bi.dst, ir::opcode_name(bi.op),
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::Arith1:
        out += format_string("r%d = %s %s", bi.dst, ir::opcode_name(bi.op),
                             real_arg_text(bi.a).c_str());
        break;
      case BInst::Kind::CastReal:
        out += format_string("r%d = cast %s", bi.dst,
                             real_arg_text(bi.a).c_str());
        break;
      case BInst::Kind::IntToReal:
        out += format_string("r%d = inttoreal %s", bi.dst,
                             int_arg_text(bi.ia).c_str());
        break;
      case BInst::Kind::Load:
      case BInst::Kind::Store: {
        std::string idx;
        for (std::int32_t d = 0; d < bi.index_count; ++d) {
          if (d) idx += ", ";
          idx += int_arg_text(
              p.index_args[static_cast<std::size_t>(bi.index_start + d)].arg);
        }
        const std::string& arr =
            p.arrays[static_cast<std::size_t>(bi.array)].name;
        if (bi.kind == BInst::Kind::Load)
          out += format_string("r%d = load @%s[%s]", bi.dst, arr.c_str(),
                               idx.c_str());
        else
          out += format_string("store %s -> @%s[%s]",
                               real_arg_text(bi.a).c_str(), arr.c_str(),
                               idx.c_str());
        break;
      }
      case BInst::Kind::IAdd: case BInst::Kind::ISub: case BInst::Kind::IMul:
      case BInst::Kind::IDiv: case BInst::Kind::IRem: case BInst::Kind::IMin:
      case BInst::Kind::IMax:
        out += format_string("r%d = %s %s, %s", bi.dst, ir::opcode_name(bi.op),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::ICmpEQ: case BInst::Kind::ICmpNE:
      case BInst::Kind::ICmpLT: case BInst::Kind::ICmpLE:
      case BInst::Kind::ICmpGT: case BInst::Kind::ICmpGE:
        out += format_string("r%d = icmp %s %s, %s", bi.dst,
                             ir::to_string(bi.pred),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::FCmpEQ: case BInst::Kind::FCmpNE:
      case BInst::Kind::FCmpLT: case BInst::Kind::FCmpLE:
      case BInst::Kind::FCmpGT: case BInst::Kind::FCmpGE:
        out += format_string("r%d = fcmp %s %s, %s", bi.dst,
                             ir::to_string(bi.pred),
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::SelectReal:
        out += format_string("r%d = select r%d, %s, %s", bi.dst, bi.cond,
                             real_arg_text(bi.a).c_str(),
                             real_arg_text(bi.b).c_str());
        break;
      case BInst::Kind::SelectInt:
        out += format_string("r%d = select r%d, %s, %s", bi.dst, bi.cond,
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::Br:
        out += format_string("br b%d", block_of(bi.edge0));
        break;
      case BInst::Kind::CondBr:
        out += format_string("condbr r%d, b%d, b%d", bi.cond,
                             block_of(bi.edge0), block_of(bi.edge1));
        break;
      case BInst::Kind::Ret:
        out += "ret";
        break;
      case BInst::Kind::Trap:
        out += "trap \"" +
               p.messages[static_cast<std::size_t>(bi.trap_msg)] + "\"";
        break;
      }
      out += "\n";
    }
  }
  return out;
}

std::string program_cache_key(const ir::Function& f,
                              const TypeAssignment& types) {
  std::string key = ir::print_function(f);
  key += "#types\n";
  for (const auto& arr : f.arrays()) {
    key += types.of(arr.get()).name();
    key += '\n';
  }
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() == ScalarType::Real) {
        key += types.of(inst.get()).name();
        key += '\n';
      }
  return key;
}

} // namespace luis::interp

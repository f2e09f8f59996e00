#include "interp/bytecode.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
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
    std::int32_t n = 0;
    for (const auto& bb : f_.blocks())
      for (const auto& inst : bb->instructions()) reg_[inst.get()] = n++;

    p_.function_name = f_.name();
    p_.num_regs = n;
    p_.source_instruction_count = static_cast<std::size_t>(n);

    for (const auto& arr : f_.arrays()) {
      array_id_[arr.get()] = static_cast<std::int32_t>(p_.arrays.size());
      ArrayBinding ab;
      ab.name = arr->name();
      ab.dims.assign(arr->dims().begin(), arr->dims().end());
      ab.element_count = arr->element_count();
      const ConcreteType at = types_.of(arr.get());
      ab.spec = spec_id(at);
      ab.init_conv = numrep::bind_quantizer(at);
      p_.arrays.push_back(std::move(ab));
    }

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      block_id_[f_.blocks()[i].get()] = static_cast<std::int32_t>(i);
    p_.blocks.resize(f_.blocks().size());

    for (std::size_t i = 0; i < f_.blocks().size(); ++i)
      compile_block(static_cast<std::int32_t>(i), *f_.blocks()[i]);

    if (!f_.blocks().empty()) p_.entry_edge = edge_id(f_.entry(), nullptr);
    return std::move(p_);
  }

private:
  std::int32_t reg(const ir::Value* v) const { return reg_.at(v); }

  std::int32_t counter_id(const std::string& op, const std::string& type) {
    const auto key = std::make_pair(op, type);
    const auto it = counter_ids_.find(key);
    if (it != counter_ids_.end()) return it->second;
    const auto id = static_cast<std::int32_t>(p_.counter_keys.size());
    p_.counter_keys.push_back(key);
    counter_ids_.emplace(key, id);
    return id;
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

  IntArg int_arg(const ir::Value* v) {
    IntArg a;
    if (v->kind() == ir::Value::Kind::ConstInt)
      a.imm = static_cast<const ir::ConstInt*>(v)->value();
    else
      a.reg = reg(v);
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
      a.imm = align ? numrep::quantize(target, raw) : raw;
      a.shadow_imm = raw;
      return a;
    }
    a.reg = reg(v);
    const ConcreteType& from = types_.of(v);
    if (from == target) return a;
    const bool folded_shift =
        !align && from.format.is_fixed() && target.format.is_fixed();
    if (!folded_shift)
      a.cast_counter =
          counter_id("cast_" + cost_class(from), cost_class(target));
    if (align) {
      a.conv = numrep::bind_quantizer(target);
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
          const ConcreteType to_ty = types_.of(phi);
          if (in->is_constant()) {
            m.rsrc.imm = numrep::quantize(to_ty, const_real_value(in));
            m.rsrc.shadow_imm = const_real_value(in);
          } else {
            m.rsrc.reg = reg(in);
            const ConcreteType& from_ty = types_.of(in);
            if (!(from_ty == to_ty)) {
              m.rsrc.cast_counter =
                  counter_id("cast_" + cost_class(from_ty), cost_class(to_ty));
              m.rsrc.conv = numrep::bind_quantizer(to_ty);
              m.rsrc.spec = spec_id(to_ty);
            }
          }
        }
        p_.moves.push_back(m);
        ++e.count;
      }
    }
    const auto id = static_cast<std::int32_t>(p_.edges.size());
    p_.edges.push_back(e);
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
      bi.target0 = block_id_.at(inst->target(0));
      bi.edge0 = edge_id(inst->target(0), from);
      break;
    case Opcode::CondBr:
      bi.kind = BInst::Kind::CondBr;
      bi.cond = reg(inst->operand(0));
      bi.target0 = block_id_.at(inst->target(0));
      bi.edge0 = edge_id(inst->target(0), from);
      bi.target1 = block_id_.at(inst->target(1));
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
      bi.a = real_arg(inst->operand(0), ty, align);
      bi.b = real_arg(inst->operand(1), ty, align);
      bi.op_counter =
          counter_id(ir::opcode_name(inst->opcode()), cost_class(ty));
      bi.kind = BInst::Kind::Arith2;
      bi.kernel2 = numrep::bind_kernel2(kernel_op2(inst->opcode()), ty);
      bi.spec = spec_id(ty);
      break;
    }
    case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt: case Opcode::Exp:
      bi.kind = BInst::Kind::Arith1;
      bi.a = real_arg(inst->operand(0), ty, /*align=*/false);
      bi.kernel1 = numrep::bind_kernel1(kernel_op1(inst->opcode()), ty);
      bi.spec = spec_id(ty);
      bi.op_counter =
          counter_id(ir::opcode_name(inst->opcode()), cost_class(ty));
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
      bi.a.conv = numrep::bind_quantizer(ty);
      bi.a.spec = spec_id(ty);
      bi.op_counter = counter_id("cast_fix", cost_class(ty));
      break;
    case Opcode::Load: {
      const auto* arr = static_cast<const ir::Array*>(inst->operand(0));
      bi.kind = BInst::Kind::Load;
      bi.array = array_id_.at(arr);
      compile_indices(bi, inst, 1, arr);
      const ConcreteType at = types_.of(arr);
      if (!(at == ty)) {
        bi.a.cast_counter =
            counter_id("cast_" + cost_class(at), cost_class(ty));
        bi.a.conv = numrep::bind_quantizer(ty);
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
      bi.kind = BInst::Kind::IntArith;
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::ICmp:
      bi.kind = BInst::Kind::IntCmp;
      bi.pred = inst->predicate();
      bi.ia = int_arg(inst->operand(0));
      bi.ib = int_arg(inst->operand(1));
      break;
    case Opcode::FCmp:
      // Comparison happens on the stored representations directly.
      bi.kind = BInst::Kind::RealCmp;
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
      p_.index_args.push_back(int_arg(inst->operand(first_operand + d)));
  }

  const ir::Function& f_;
  const TypeAssignment& types_;
  CompiledProgram p_;
  std::map<std::pair<std::string, std::string>, std::int32_t> counter_ids_;
  std::vector<ConcreteType> spec_types_; ///< parallel to p_.specs
  std::map<const ir::Value*, std::int32_t> reg_;
  std::map<const ir::BasicBlock*, std::int32_t> block_id_;
  std::map<const ir::Array*, std::int32_t> array_id_;
  std::map<std::pair<const ir::BasicBlock*, const ir::BasicBlock*>,
           std::int32_t>
      edge_ids_;
};

/// Register file of the VM (same layout as the reference interpreter's
/// slots).
struct Reg {
  double real = 0.0;
  std::int64_t integer = 0;
  bool boolean = false;
};

template <typename T> bool compare(ir::CmpPred pred, T a, T b) {
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

/// flat_index's result for a load/store whose index is out of bounds.
constexpr std::size_t kOutOfBounds = std::numeric_limits<std::size_t>::max();

/// Records the out-of-bounds trap. Out of line and cold, so the dispatch
/// loop keeps only the bounds test.
[[gnu::cold, gnu::noinline]] void trap_out_of_bounds(RunResult& result,
                                                     const std::string& array) {
  result.error = "array index out of bounds on " + array;
}

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

  const bool track_regs = opt.track_register_ranges;
  const bool track_arrays = opt.track_array_ranges;

  std::map<std::string, std::pair<double, double>> array_ranges;
  const auto observe_array = [&](const std::string& name, double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] = array_ranges.try_emplace(name, v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  };

  // Shadow execution (RunOptions::error_profile): a lockstep binary64
  // value per real register and array slot, following the quantized run's
  // control flow. Everything below is gated on `ep` so shadow-off runs
  // stay bit-identical (and nearly free).
  ErrorProfile* const ep = opt.error_profile;
  std::vector<double> shadow;
  std::vector<std::vector<double>> shadow_bufs;
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
    shadow.assign(static_cast<std::size_t>(p.num_regs), 0.0);
    shadow_bufs.reserve(p.arrays.size());
  }

  // Bind array buffers by name and quantize their initial contents. The
  // shadow buffers capture the raw (pre-quantization) contents — the
  // shadow world never quantizes, including at initialization.
  std::vector<std::vector<double>*> buffers;
  buffers.reserve(p.arrays.size());
  for (const ArrayBinding& ab : p.arrays) {
    auto& buf = store[ab.name];
    buf.resize(static_cast<std::size_t>(ab.element_count), 0.0);
    if (ep) shadow_bufs.push_back(buf);
    const numrep::QuantSpec& spec = p.specs[static_cast<std::size_t>(ab.spec)];
    for (double& v : buf) {
      v = ab.init_conv(spec, v);
      if (track_arrays) observe_array(ab.name, v);
    }
    buffers.push_back(&buf);
  }

  if (p.blocks.empty()) {
    result.error = "no entry block";
    return result;
  }

  // Register ordinal -> Instruction*, only needed to attribute observed
  // register ranges back to the source IR.
  std::vector<const Instruction*> inst_of;
  std::map<const Instruction*, std::pair<double, double>> register_ranges;
  if (track_regs) {
    inst_of.reserve(static_cast<std::size_t>(p.num_regs));
    for (const auto& bb : f.blocks())
      for (const auto& inst : bb->instructions()) inst_of.push_back(inst.get());
  }
  const auto observe_reg = [&](std::int32_t r, double v) {
    if (std::isnan(v)) return;
    auto [it, fresh] =
        register_ranges.try_emplace(inst_of[static_cast<std::size_t>(r)], v, v);
    if (!fresh) {
      it->second.first = std::min(it->second.first, v);
      it->second.second = std::max(it->second.second, v);
    }
  };

  std::vector<Reg> regs(static_cast<std::size_t>(p.num_regs));
  std::vector<long> counts(p.counter_keys.size(), 0);
  long non_real = 0;

  // Per-pc execution profile (hot-spot attribution, see obs/profile.hpp).
  VmProfile* const prof = opt.vm_profile;
  if (prof) {
    prof->instr_executions.assign(p.code.size(), 0);
    prof->edge_applications.assign(p.edges.size(), 0);
    prof->select_real_first.assign(p.code.size(), 0);
  }

  const auto fetch_real = [&](const RealArg& a) {
    double v = a.reg >= 0 ? regs[static_cast<std::size_t>(a.reg)].real : a.imm;
    if (a.cast_counter >= 0) ++counts[static_cast<std::size_t>(a.cast_counter)];
    if (a.conv) v = a.conv(p.specs[static_cast<std::size_t>(a.spec)], v);
    return v;
  };
  const auto fetch_int = [&](const IntArg& a) {
    return a.reg >= 0 ? regs[static_cast<std::size_t>(a.reg)].integer : a.imm;
  };
  // Shadow operand fetch: raw register or raw constant, never converted.
  const auto fetch_shadow = [&](const RealArg& a) {
    return a.reg >= 0 ? shadow[static_cast<std::size_t>(a.reg)] : a.shadow_imm;
  };
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
        ep->first_spike_step = result.steps;
        ep->first_spike_pc = at_pc;
        ep->first_spike_src = at_src;
        ep->first_spike_rel = rel_err;
      }
      obs::instant("vm.error_spike", "vm", obs::Args()
                                               .str("function", p.function_name)
                                               .num("pc", at_pc)
                                               .num("src", at_src)
                                               .num("rel", rel_err)
                                               .num("step", result.steps)
                                               .done());
    }
  };
  // Row-major cell of a load/store, or kOutOfBounds (with result.error
  // set) when an index is out of bounds.
  const auto flat_index = [&](const BInst& bi) {
    const ArrayBinding& ab = p.arrays[static_cast<std::size_t>(bi.array)];
    std::size_t flat = 0;
    for (std::int32_t d = 0; d < bi.index_count; ++d) {
      const std::int64_t idx =
          fetch_int(p.index_args[static_cast<std::size_t>(bi.index_start + d)]);
      if (idx < 0 || idx >= ab.dims[static_cast<std::size_t>(d)]) [[unlikely]] {
        trap_out_of_bounds(result, ab.name);
        return kOutOfBounds;
      }
      flat = flat * static_cast<std::size_t>(ab.dims[static_cast<std::size_t>(d)]) +
             static_cast<std::size_t>(idx);
    }
    return flat;
  };

  // Phi batches commit through a scratch buffer so every move reads the
  // pre-edge register values (simultaneous-read semantics).
  std::size_t max_moves = 0;
  for (const EdgeMoves& e : p.edges)
    max_moves = std::max(max_moves, static_cast<std::size_t>(e.count));
  std::vector<Reg> scratch(max_moves);
  std::vector<double> shadow_scratch(ep ? max_moves : 0);

  // Returns false when the edge traps (sets result.error).
  const auto apply_edge = [&](std::int32_t id) {
    const EdgeMoves& e = p.edges[static_cast<std::size_t>(id)];
    if (e.trap_msg >= 0) {
      result.error = p.messages[static_cast<std::size_t>(e.trap_msg)];
      return false;
    }
    if (prof) ++prof->edge_applications[static_cast<std::size_t>(id)];
    for (std::int32_t i = 0; i < e.count; ++i) {
      const PhiMove& m = p.moves[static_cast<std::size_t>(e.start + i)];
      if (m.is_real) {
        scratch[static_cast<std::size_t>(i)].real = fetch_real(m.rsrc);
        if (ep)
          shadow_scratch[static_cast<std::size_t>(i)] = fetch_shadow(m.rsrc);
      } else {
        scratch[static_cast<std::size_t>(i)].integer = fetch_int(m.isrc);
      }
    }
    for (std::int32_t i = 0; i < e.count; ++i) {
      const PhiMove& m = p.moves[static_cast<std::size_t>(e.start + i)];
      if (m.is_real) {
        regs[static_cast<std::size_t>(m.dst)].real =
            scratch[static_cast<std::size_t>(i)].real;
        if (ep) {
          shadow[static_cast<std::size_t>(m.dst)] =
              shadow_scratch[static_cast<std::size_t>(i)];
          record(ep->moves[static_cast<std::size_t>(e.start + i)],
                 scratch[static_cast<std::size_t>(i)].real,
                 shadow_scratch[static_cast<std::size_t>(i)], -1, m.dst);
        }
        if (track_regs)
          observe_reg(m.dst, scratch[static_cast<std::size_t>(i)].real);
      } else {
        regs[static_cast<std::size_t>(m.dst)].integer =
            scratch[static_cast<std::size_t>(i)].integer;
      }
    }
    result.steps += e.count;
    return true;
  };

  if (!apply_edge(p.entry_edge)) return result;
  std::int32_t pc = p.blocks[0].entry;

  for (;;) {
    const BInst& bi = p.code[static_cast<std::size_t>(pc)];
    if (bi.kind == BInst::Kind::Trap) {
      result.error = p.messages[static_cast<std::size_t>(bi.trap_msg)];
      return result;
    }
    if (++result.steps > opt.max_steps) {
      result.error = "step limit exceeded";
      return result;
    }
    if (prof) ++prof->instr_executions[static_cast<std::size_t>(pc)];
    switch (bi.kind) {
    case BInst::Kind::Arith2: {
      const double a = fetch_real(bi.a);
      const double b = fetch_real(bi.b);
      const double r = bi.kernel2(p.specs[static_cast<std::size_t>(bi.spec)], a, b);
      regs[static_cast<std::size_t>(bi.dst)].real = r;
      ++counts[static_cast<std::size_t>(bi.op_counter)];
      if (ep) {
        const double s =
            shadow_op2(bi.op, fetch_shadow(bi.a), fetch_shadow(bi.b));
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], r, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, r);
      ++pc;
      break;
    }
    case BInst::Kind::Arith1: {
      const double a = fetch_real(bi.a);
      const double r = bi.kernel1(p.specs[static_cast<std::size_t>(bi.spec)], a);
      regs[static_cast<std::size_t>(bi.dst)].real = r;
      ++counts[static_cast<std::size_t>(bi.op_counter)];
      if (ep) {
        const double s = shadow_op1(bi.op, fetch_shadow(bi.a));
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], r, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, r);
      ++pc;
      break;
    }
    case BInst::Kind::CastReal: {
      const double r = fetch_real(bi.a);
      regs[static_cast<std::size_t>(bi.dst)].real = r;
      if (ep) {
        // Representation change only: the shadow value passes through.
        const double s = fetch_shadow(bi.a);
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], r, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, r);
      ++pc;
      break;
    }
    case BInst::Kind::IntToReal: {
      const std::int64_t iv = fetch_int(bi.ia);
      const double r = bi.a.conv(p.specs[static_cast<std::size_t>(bi.a.spec)],
                                 static_cast<double>(iv));
      regs[static_cast<std::size_t>(bi.dst)].real = r;
      ++counts[static_cast<std::size_t>(bi.op_counter)];
      if (ep) {
        const double s = static_cast<double>(iv);
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], r, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, r);
      ++pc;
      break;
    }
    case BInst::Kind::Load: {
      const std::size_t ix = flat_index(bi);
      if (ix == kOutOfBounds) [[unlikely]] return result;
      double v = (*buffers[static_cast<std::size_t>(bi.array)])[ix];
      if (bi.a.cast_counter >= 0)
        ++counts[static_cast<std::size_t>(bi.a.cast_counter)];
      if (bi.a.conv) v = bi.a.conv(p.specs[static_cast<std::size_t>(bi.a.spec)], v);
      regs[static_cast<std::size_t>(bi.dst)].real = v;
      ++non_real;
      if (ep) {
        const double s = shadow_bufs[static_cast<std::size_t>(bi.array)][ix];
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], v, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, v);
      ++pc;
      break;
    }
    case BInst::Kind::Store: {
      const std::size_t ix = flat_index(bi);
      if (ix == kOutOfBounds) [[unlikely]] return result;
      const double v = fetch_real(bi.a);
      (*buffers[static_cast<std::size_t>(bi.array)])[ix] = v;
      if (ep) {
        const double s = fetch_shadow(bi.a);
        shadow_bufs[static_cast<std::size_t>(bi.array)][ix] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], v, s, pc, bi.src);
      }
      if (track_arrays)
        observe_array(p.arrays[static_cast<std::size_t>(bi.array)].name, v);
      ++non_real;
      ++pc;
      break;
    }
    case BInst::Kind::IntArith: {
      const std::int64_t a = fetch_int(bi.ia);
      const std::int64_t b = fetch_int(bi.ib);
      std::int64_t r = 0;
      switch (bi.op) {
      case Opcode::IAdd: r = a + b; break;
      case Opcode::ISub: r = a - b; break;
      case Opcode::IMul: r = a * b; break;
      case Opcode::IDiv: r = b == 0 ? 0 : a / b; break;
      case Opcode::IRem: r = b == 0 ? 0 : a % b; break;
      case Opcode::IMin: r = std::min(a, b); break;
      case Opcode::IMax: r = std::max(a, b); break;
      default: LUIS_UNREACHABLE("not an int op");
      }
      regs[static_cast<std::size_t>(bi.dst)].integer = r;
      ++non_real;
      ++pc;
      break;
    }
    case BInst::Kind::IntCmp:
      regs[static_cast<std::size_t>(bi.dst)].boolean =
          compare(bi.pred, fetch_int(bi.ia), fetch_int(bi.ib));
      ++non_real;
      ++pc;
      break;
    case BInst::Kind::RealCmp: {
      const bool c = compare(bi.pred, fetch_real(bi.a), fetch_real(bi.b));
      regs[static_cast<std::size_t>(bi.dst)].boolean = c;
      if (ep) {
        // Control stays lockstep on the quantized outcome; a disagreement
        // with the shadow values means an independent binary64 run could
        // take a different path from here on.
        const bool sc =
            compare(bi.pred, fetch_shadow(bi.a), fetch_shadow(bi.b));
        if (sc != c) {
          if (ep->control_divergences == 0)
            ep->first_control_divergence_step = result.steps;
          ++ep->control_divergences;
        }
      }
      ++non_real;
      ++pc;
      break;
    }
    case BInst::Kind::SelectReal: {
      const bool c = regs[static_cast<std::size_t>(bi.cond)].boolean;
      if (prof && c) ++prof->select_real_first[static_cast<std::size_t>(pc)];
      const double v = fetch_real(c ? bi.a : bi.b);
      regs[static_cast<std::size_t>(bi.dst)].real = v;
      ++non_real;
      if (ep) {
        // The shadow takes the side the quantized condition chose.
        const double s = fetch_shadow(c ? bi.a : bi.b);
        shadow[static_cast<std::size_t>(bi.dst)] = s;
        record(ep->instr[static_cast<std::size_t>(pc)], v, s, pc, bi.src);
      }
      if (track_regs) observe_reg(bi.dst, v);
      ++pc;
      break;
    }
    case BInst::Kind::SelectInt: {
      const bool c = regs[static_cast<std::size_t>(bi.cond)].boolean;
      regs[static_cast<std::size_t>(bi.dst)].integer =
          fetch_int(c ? bi.ia : bi.ib);
      ++non_real;
      ++pc;
      break;
    }
    case BInst::Kind::Br:
      ++non_real;
      if (!apply_edge(bi.edge0)) return result;
      pc = p.blocks[static_cast<std::size_t>(bi.target0)].entry;
      break;
    case BInst::Kind::CondBr: {
      ++non_real;
      const bool c = regs[static_cast<std::size_t>(bi.cond)].boolean;
      if (!apply_edge(c ? bi.edge0 : bi.edge1)) return result;
      pc = p.blocks[static_cast<std::size_t>(c ? bi.target0 : bi.target1)].entry;
      break;
    }
    case BInst::Kind::Ret:
      result.ok = true;
      if (opt.count_costs) {
        for (std::size_t i = 0; i < counts.size(); ++i)
          if (counts[i] > 0) result.counters.ops[p.counter_keys[i]] = counts[i];
        result.counters.non_real_ops = non_real;
      }
      if (ep) {
        std::vector<const std::vector<double>*> qp(buffers.begin(),
                                                   buffers.end());
        std::vector<const std::vector<double>*> sp;
        sp.reserve(shadow_bufs.size());
        for (const auto& b : shadow_bufs) sp.push_back(&b);
        finalize_error_profile(*ep, p, qp, sp);
      }
      result.array_ranges = std::move(array_ranges);
      result.register_ranges = std::move(register_ranges);
      return result;
    case BInst::Kind::Trap:
      LUIS_UNREACHABLE("handled before the step check");
    }
  }
}

std::string disassemble(const CompiledProgram& p) {
  std::string out = "program " + p.function_name +
                    format_string(": %d regs, %zu blocks, %zu counters\n",
                                  p.num_regs, p.blocks.size(),
                                  p.counter_keys.size());
  const auto real_arg_text = [](const RealArg& a) {
    std::string s = a.reg >= 0 ? format_string("r%d", a.reg)
                               : format_string("#%g", a.imm);
    if (a.conv) s += "!";             // aligned into the result format
    if (a.cast_counter >= 0) s += "$"; // fetch bills a cast
    return s;
  };
  const auto int_arg_text = [](const IntArg& a) {
    return a.reg >= 0 ? format_string("r%d", a.reg)
                      : format_string("#%lld", static_cast<long long>(a.imm));
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
      case BInst::Kind::Arith2:
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
              p.index_args[static_cast<std::size_t>(bi.index_start + d)]);
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
      case BInst::Kind::IntArith:
        out += format_string("r%d = %s %s, %s", bi.dst, ir::opcode_name(bi.op),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::IntCmp:
        out += format_string("r%d = icmp %s %s, %s", bi.dst,
                             ir::to_string(bi.pred),
                             int_arg_text(bi.ia).c_str(),
                             int_arg_text(bi.ib).c_str());
        break;
      case BInst::Kind::RealCmp:
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
        out += format_string("br b%d", bi.target0);
        break;
      case BInst::Kind::CondBr:
        out += format_string("condbr r%d, b%d, b%d", bi.cond, bi.target0,
                             bi.target1);
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

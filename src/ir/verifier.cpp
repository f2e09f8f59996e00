#include "ir/verifier.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "support/string_utils.hpp"

namespace luis::ir {
namespace {

/// Reverse postorder over reachable blocks.
std::vector<const BasicBlock*> reverse_postorder(const Function& f) {
  std::vector<const BasicBlock*> order;
  std::set<const BasicBlock*> visited;
  // Iterative DFS with explicit post stack.
  struct Frame {
    const BasicBlock* bb;
    std::vector<BasicBlock*> succs;
    std::size_t next = 0;
  };
  if (!f.entry()) return order;
  std::vector<Frame> stack;
  stack.push_back({f.entry(), f.entry()->successors()});
  visited.insert(f.entry());
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next < top.succs.size()) {
      BasicBlock* s = top.succs[top.next++];
      if (visited.insert(s).second) stack.push_back({s, s->successors()});
    } else {
      order.push_back(top.bb);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

} // namespace

std::map<const BasicBlock*, const BasicBlock*> compute_dominators(const Function& f) {
  std::map<const BasicBlock*, const BasicBlock*> idom;
  const std::vector<const BasicBlock*> rpo = reverse_postorder(f);
  if (rpo.empty()) return idom;
  std::map<const BasicBlock*, std::size_t> rpo_index;
  for (std::size_t i = 0; i < rpo.size(); ++i) rpo_index[rpo[i]] = i;

  const BasicBlock* entry = rpo.front();
  idom[entry] = entry;

  auto intersect = [&](const BasicBlock* a, const BasicBlock* b) {
    while (a != b) {
      while (rpo_index.at(a) > rpo_index.at(b)) a = idom.at(a);
      while (rpo_index.at(b) > rpo_index.at(a)) b = idom.at(b);
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 1; i < rpo.size(); ++i) {
      const BasicBlock* bb = rpo[i];
      const BasicBlock* new_idom = nullptr;
      for (const BasicBlock* pred : f.predecessors(bb)) {
        if (!idom.count(pred)) continue; // unreachable or not yet processed
        new_idom = new_idom ? intersect(new_idom, pred) : pred;
      }
      if (new_idom && (!idom.count(bb) || idom[bb] != new_idom)) {
        idom[bb] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

bool dominates(const std::map<const BasicBlock*, const BasicBlock*>& idom,
               const BasicBlock* a, const BasicBlock* b) {
  if (!idom.count(b) || !idom.count(a)) return false;
  const BasicBlock* cur = b;
  for (;;) {
    if (cur == a) return true;
    const BasicBlock* up = idom.at(cur);
    if (up == cur) return false; // reached entry
    cur = up;
  }
}

std::map<const Value*, std::vector<Use>> compute_uses(const Function& f) {
  std::map<const Value*, std::vector<Use>> uses;
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      for (std::size_t i = 0; i < inst->num_operands(); ++i)
        uses[inst->operand(i)].push_back({inst.get(), i});
  return uses;
}

std::string VerifyResult::message() const {
  std::ostringstream os;
  for (const std::string& e : errors) os << e << "\n";
  return os.str();
}

VerifyResult verify(const Function& f) {
  VerifyResult result;
  auto fail = [&](const std::string& msg) { result.errors.push_back(msg); };

  // Array headers. Dimensions are checked one at a time against the
  // element cap, so the running product never overflows.
  for (const auto& arr : f.arrays()) {
    std::int64_t elements = 1;
    for (const std::int64_t d : arr->dims()) {
      if (d < 1) {
        fail("array @" + arr->name() + " has dimension " + std::to_string(d) +
             " (must be >= 1)");
        break;
      }
      if (d > kMaxArrayElements / elements) {
        fail("array @" + arr->name() + " has more than " +
             std::to_string(kMaxArrayElements) + " elements");
        break;
      }
      elements *= d;
    }
    if (const auto& range = arr->range_annotation()) {
      const auto [lo, hi] = *range;
      if (!(lo <= hi))
        fail("array @" + arr->name() + " has range [" + format_string("%g", lo) +
             ", " + format_string("%g", hi) + "] (needs lo <= hi, no NaN)");
    }
  }

  if (!f.entry()) {
    fail("function has no entry block");
    return result;
  }

  // Position of each instruction for same-block ordering checks.
  std::map<const Instruction*, std::pair<const BasicBlock*, std::size_t>> position;
  for (const auto& bb : f.blocks()) {
    for (std::size_t i = 0; i < bb->instructions().size(); ++i)
      position[bb->instructions()[i].get()] = {bb.get(), i};
  }

  // Block-local structure.
  for (const auto& bb : f.blocks()) {
    const auto& insts = bb->instructions();
    if (insts.empty() || !insts.back()->is_terminator()) {
      fail("block " + bb->name() + " is not terminated");
      continue;
    }
    bool seen_non_phi = false;
    for (std::size_t i = 0; i < insts.size(); ++i) {
      const Instruction* inst = insts[i].get();
      if (inst->is_terminator() && i + 1 != insts.size())
        fail("block " + bb->name() + " has a terminator in the middle");
      if (inst->is_phi()) {
        if (seen_non_phi)
          fail("block " + bb->name() + " has a phi after non-phi instructions");
      } else {
        seen_non_phi = true;
      }
    }
  }

  // Phi / predecessor agreement.
  for (const auto& bb : f.blocks()) {
    const std::vector<BasicBlock*> preds = f.predecessors(bb.get());
    const std::set<const BasicBlock*> pred_set(preds.begin(), preds.end());
    for (const auto& inst : bb->instructions()) {
      if (!inst->is_phi()) continue;
      if (bb.get() == f.entry())
        fail("entry block contains a phi");
      const auto& incoming = inst->incoming_blocks();
      if (incoming.size() != inst->num_operands()) {
        fail("phi in " + bb->name() + " has mismatched incoming arity");
        continue;
      }
      std::set<const BasicBlock*> in_set(incoming.begin(), incoming.end());
      if (in_set != pred_set)
        fail("phi in " + bb->name() + " incoming blocks do not match predecessors");
      for (const Value* op : inst->operands())
        if (op->type() != inst->type())
          fail("phi in " + bb->name() + " has operand of wrong type");
    }
  }

  // Operand typing per opcode.
  auto expect = [&](const Instruction* inst, std::size_t idx, ScalarType t) {
    if (inst->num_operands() <= idx || inst->operand(idx)->type() != t)
      fail(std::string("operand ") + std::to_string(idx) + " of " +
           to_string(inst->opcode()) + " in " + inst->parent()->name() +
           " must be " + to_string(t));
  };
  for (const auto& bb : f.blocks()) {
    for (const auto& inst_ptr : bb->instructions()) {
      const Instruction* inst = inst_ptr.get();
      switch (inst->opcode()) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
      case Opcode::Rem: case Opcode::Pow: case Opcode::Min: case Opcode::Max:
        expect(inst, 0, ScalarType::Real);
        expect(inst, 1, ScalarType::Real);
        break;
      case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt: case Opcode::Exp:
      case Opcode::Cast:
        expect(inst, 0, ScalarType::Real);
        break;
      case Opcode::IntToReal:
        expect(inst, 0, ScalarType::Int);
        break;
      case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul:
      case Opcode::IDiv: case Opcode::IRem: case Opcode::IMin: case Opcode::IMax:
      case Opcode::ICmp:
        expect(inst, 0, ScalarType::Int);
        expect(inst, 1, ScalarType::Int);
        break;
      case Opcode::FCmp:
        expect(inst, 0, ScalarType::Real);
        expect(inst, 1, ScalarType::Real);
        break;
      case Opcode::Select:
        expect(inst, 0, ScalarType::Bool);
        if (inst->num_operands() == 3 &&
            (inst->operand(1)->type() != inst->type() ||
             inst->operand(2)->type() != inst->type()))
          fail("select arms must match the result type");
        break;
      case Opcode::Load: {
        if (inst->num_operands() == 0 || !inst->operand(0)->is_array()) {
          fail("load must address an array");
          break;
        }
        const auto* arr = static_cast<const Array*>(inst->operand(0));
        if (inst->num_operands() != 1 + arr->rank())
          fail("load of " + arr->name() + " has wrong index arity");
        for (std::size_t i = 1; i < inst->num_operands(); ++i)
          expect(inst, i, ScalarType::Int);
        break;
      }
      case Opcode::Store: {
        expect(inst, 0, ScalarType::Real);
        if (inst->num_operands() < 2 || !inst->operand(1)->is_array()) {
          fail("store must address an array");
          break;
        }
        const auto* arr = static_cast<const Array*>(inst->operand(1));
        if (inst->num_operands() != 2 + arr->rank())
          fail("store to " + arr->name() + " has wrong index arity");
        for (std::size_t i = 2; i < inst->num_operands(); ++i)
          expect(inst, i, ScalarType::Int);
        break;
      }
      case Opcode::CondBr:
        expect(inst, 0, ScalarType::Bool);
        if (inst->targets().size() != 2) fail("condbr needs two targets");
        break;
      case Opcode::Br:
        if (inst->targets().size() != 1) fail("br needs one target");
        break;
      case Opcode::Ret:
      case Opcode::Phi:
        break;
      }
    }
  }

  // Dominance: defs dominate uses (reachable code only).
  const auto idom = compute_dominators(f);
  for (const auto& bb : f.blocks()) {
    if (!idom.count(bb.get())) {
      fail("block " + bb->name() + " is unreachable");
      continue;
    }
    for (const auto& inst_ptr : bb->instructions()) {
      const Instruction* user = inst_ptr.get();
      for (std::size_t i = 0; i < user->num_operands(); ++i) {
        const Value* op = user->operand(i);
        if (!op->is_instruction()) continue;
        const auto* def = static_cast<const Instruction*>(op);
        const auto def_pos = position.find(def);
        if (def_pos == position.end()) {
          fail("use of instruction not present in this function");
          continue;
        }
        if (user->is_phi()) {
          const BasicBlock* from = user->incoming_blocks()[i];
          if (!dominates(idom, def_pos->second.first, from))
            fail("phi operand does not dominate incoming edge in " + bb->name());
        } else if (def_pos->second.first == bb.get()) {
          if (def_pos->second.second >= position.at(user).second)
            fail("use before def inside block " + bb->name());
        } else if (!dominates(idom, def_pos->second.first, bb.get())) {
          fail("operand does not dominate its use in " + bb->name());
        }
      }
    }
  }

  return result;
}

} // namespace luis::ir

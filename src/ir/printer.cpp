#include "ir/printer.hpp"

#include <sstream>

#include "support/diag.hpp"

namespace luis::ir {
namespace {

void print_real_literal(std::ostream& os, double v) {
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  std::string s = tmp.str();
  // Ensure the token is recognizably a real literal.
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos && s.find("nan") == std::string::npos)
    s += ".0";
  os << s;
}

class FunctionPrinter {
public:
  explicit FunctionPrinter(const Function& f)
      : f_(f), ids_(number_instructions(f)) {}

  std::string run() {
    os_ << "func @" << f_.name() << " {\n";
    for (const auto& arr : f_.arrays()) {
      os_ << "  array @" << arr->name();
      for (const std::int64_t d : arr->dims()) os_ << "[" << d << "]";
      if (arr->range_annotation()) {
        // Full-precision bounds: print -> parse must reproduce the exact
        // annotation or a cloned function sees shifted VRA ranges.
        os_ << " range [";
        print_real_literal(os_, arr->range_annotation()->first);
        os_ << ", ";
        print_real_literal(os_, arr->range_annotation()->second);
        os_ << "]";
      }
      os_ << "\n";
    }
    for (const auto& bb : f_.blocks()) {
      os_ << bb->name() << ":\n";
      for (const auto& inst : bb->instructions()) print_inst(*inst);
    }
    os_ << "}\n";
    return os_.str();
  }

private:
  void print_operand(const Value* v) {
    switch (v->kind()) {
    case Value::Kind::Instruction:
      os_ << "%" << ids_.at(static_cast<const Instruction*>(v));
      break;
    case Value::Kind::ConstReal:
      print_real_literal(os_, static_cast<const ConstReal*>(v)->value());
      break;
    case Value::Kind::ConstInt:
      os_ << static_cast<const ConstInt*>(v)->value();
      break;
    case Value::Kind::Array:
      os_ << "@" << v->name();
      break;
    }
  }

  void print_inst(const Instruction& inst) {
    os_ << "  ";
    if (inst.type() != ScalarType::Void)
      os_ << "%" << ids_.at(&inst) << " = ";
    switch (inst.opcode()) {
    case Opcode::Phi: {
      os_ << "phi " << to_string(inst.type());
      for (std::size_t i = 0; i < inst.num_operands(); ++i) {
        os_ << (i == 0 ? " [ " : ", [ ");
        print_operand(inst.operand(i));
        os_ << ", " << inst.incoming_blocks()[i]->name() << " ]";
      }
      break;
    }
    case Opcode::ICmp:
    case Opcode::FCmp:
      os_ << to_string(inst.opcode()) << " " << to_string(inst.predicate()) << " ";
      print_operand(inst.operand(0));
      os_ << ", ";
      print_operand(inst.operand(1));
      break;
    case Opcode::Load: {
      const auto* arr = static_cast<const Array*>(inst.operand(0));
      os_ << "load @" << arr->name();
      for (std::size_t i = 1; i < inst.num_operands(); ++i) {
        os_ << "[";
        print_operand(inst.operand(i));
        os_ << "]";
      }
      break;
    }
    case Opcode::Store: {
      const auto* arr = static_cast<const Array*>(inst.operand(1));
      os_ << "store ";
      print_operand(inst.operand(0));
      os_ << ", @" << arr->name();
      for (std::size_t i = 2; i < inst.num_operands(); ++i) {
        os_ << "[";
        print_operand(inst.operand(i));
        os_ << "]";
      }
      break;
    }
    case Opcode::Br:
      os_ << "br " << inst.target(0)->name();
      break;
    case Opcode::CondBr:
      os_ << "condbr ";
      print_operand(inst.operand(0));
      os_ << ", " << inst.target(0)->name() << ", " << inst.target(1)->name();
      break;
    case Opcode::Ret:
      os_ << "ret";
      break;
    default:
      os_ << to_string(inst.opcode());
      for (std::size_t i = 0; i < inst.num_operands(); ++i) {
        os_ << (i == 0 ? " " : ", ");
        print_operand(inst.operand(i));
      }
      break;
    }
    os_ << "\n";
  }

  const Function& f_;
  std::map<const Instruction*, int> ids_;
  std::ostringstream os_;
};

} // namespace

std::map<const Instruction*, int> number_instructions(const Function& f) {
  std::map<const Instruction*, int> ids;
  int next = 0;
  for (const auto& bb : f.blocks())
    for (const auto& inst : bb->instructions())
      if (inst->type() != ScalarType::Void) ids[inst.get()] = next++;
  return ids;
}

std::string print_function(const Function& f) { return FunctionPrinter(f).run(); }

} // namespace luis::ir

#include "ir/parser.hpp"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "support/string_utils.hpp"

namespace luis::ir {
namespace {

bool is_real_literal(std::string_view tok) {
  return tok.find('.') != std::string_view::npos ||
         tok.find('e') != std::string_view::npos ||
         tok.find("inf") != std::string_view::npos ||
         tok.find("nan") != std::string_view::npos;
}

std::optional<Opcode> opcode_by_name(std::string_view name) {
  static const std::map<std::string_view, Opcode> kTable = {
      {"add", Opcode::Add},       {"sub", Opcode::Sub},
      {"mul", Opcode::Mul},       {"div", Opcode::Div},
      {"rem", Opcode::Rem},       {"neg", Opcode::Neg},
      {"abs", Opcode::Abs},       {"sqrt", Opcode::Sqrt},
      {"exp", Opcode::Exp},       {"pow", Opcode::Pow},
      {"min", Opcode::Min},       {"max", Opcode::Max},
      {"cast", Opcode::Cast},     {"inttoreal", Opcode::IntToReal},
      {"load", Opcode::Load},     {"store", Opcode::Store},
      {"iadd", Opcode::IAdd},     {"isub", Opcode::ISub},
      {"imul", Opcode::IMul},     {"idiv", Opcode::IDiv},
      {"irem", Opcode::IRem},     {"imin", Opcode::IMin},
      {"imax", Opcode::IMax},     {"icmp", Opcode::ICmp},
      {"fcmp", Opcode::FCmp},     {"select", Opcode::Select},
      {"phi", Opcode::Phi},       {"br", Opcode::Br},
      {"condbr", Opcode::CondBr}, {"ret", Opcode::Ret},
  };
  const auto it = kTable.find(name);
  if (it == kTable.end()) return std::nullopt;
  return it->second;
}

std::optional<CmpPred> pred_by_name(std::string_view name) {
  static const std::map<std::string_view, CmpPred> kTable = {
      {"eq", CmpPred::EQ}, {"ne", CmpPred::NE}, {"lt", CmpPred::LT},
      {"le", CmpPred::LE}, {"gt", CmpPred::GT}, {"ge", CmpPred::GE},
  };
  const auto it = kTable.find(name);
  if (it == kTable.end()) return std::nullopt;
  return it->second;
}

ScalarType result_type_of(Opcode op) {
  switch (op) {
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
  case Opcode::Rem: case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt:
  case Opcode::Exp: case Opcode::Pow: case Opcode::Min: case Opcode::Max:
  case Opcode::Cast: case Opcode::IntToReal: case Opcode::Load:
    return ScalarType::Real;
  case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul: case Opcode::IDiv:
  case Opcode::IRem: case Opcode::IMin: case Opcode::IMax:
    return ScalarType::Int;
  case Opcode::ICmp: case Opcode::FCmp:
    return ScalarType::Bool;
  default:
    return ScalarType::Void;
  }
}

class Parser {
public:
  Parser(Module& module, std::string_view text) : module_(module), text_(text) {}

  ParseResult run() {
    ParseResult result;
    std::vector<std::string> lines;
    {
      std::istringstream is{std::string(text_)};
      std::string line;
      while (std::getline(is, line)) {
        const auto t = trim(line);
        if (!t.empty()) lines.emplace_back(t);
      }
    }
    if (lines.empty() || !starts_with(lines.front(), "func @")) {
      result.error = "expected 'func @name {'";
      return result;
    }
    std::string header = lines.front();
    const auto brace = header.find('{');
    std::string fname{trim(header.substr(6, brace == std::string::npos
                                                ? std::string::npos
                                                : brace - 6))};
    function_ = module_.add_function(fname);

    // Pass 1: create blocks and arrays.
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      if (line == "}") break;
      if (starts_with(line, "array @")) {
        if (!parse_array(line)) {
          result.error = "bad array declaration: " + line;
          return result;
        }
      } else if (line.back() == ':') {
        function_->add_block(line.substr(0, line.size() - 1));
      }
    }

    // Pass 2: instructions.
    BasicBlock* current = nullptr;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      if (line == "}") break;
      if (starts_with(line, "array @")) continue;
      if (line.back() == ':') {
        current = function_->block_by_name(line.substr(0, line.size() - 1));
        continue;
      }
      if (!current) {
        result.error = "instruction outside of a block: " + line;
        return result;
      }
      std::string err = parse_instruction(current, line);
      if (!err.empty()) {
        result.error = err + " in line: " + line;
        return result;
      }
    }

    // Resolve pending (forward) references.
    for (const auto& [inst, slot, token] : pending_) {
      Value* v = resolve(token);
      if (!v) {
        result.error = "unresolved operand " + token;
        return result;
      }
      inst->set_operand(slot, v);
    }
    result.function = function_;
    return result;
  }

private:
  bool parse_array(const std::string& line) {
    // array @NAME[d0][d1]... [range [lo, hi]]
    std::size_t pos = 7; // after "array @"
    std::size_t bracket = line.find('[', pos);
    if (bracket == std::string::npos) return false;
    const std::string name = line.substr(pos, bracket - pos);
    std::vector<std::int64_t> dims;
    std::size_t cursor = bracket;
    while (cursor < line.size() && line[cursor] == '[') {
      const std::size_t close = line.find(']', cursor);
      if (close == std::string::npos) return false;
      const auto dim = parse_number<std::int64_t>(
          std::string_view(line).substr(cursor + 1, close - cursor - 1));
      if (!dim) return false;
      dims.push_back(*dim);
      cursor = close + 1;
    }
    Array* arr = function_->add_array(name, std::move(dims));
    const std::string_view rest = trim(std::string_view(line).substr(cursor));
    if (rest.empty()) return true;
    constexpr std::string_view kRange = "range [";
    const std::size_t comma = rest.find(',');
    if (!starts_with(rest, kRange) || rest.back() != ']' ||
        comma == std::string_view::npos)
      return false;
    const auto lo = parse_number<double>(
        trim(rest.substr(kRange.size(), comma - kRange.size())));
    const auto hi = parse_number<double>(
        trim(rest.substr(comma + 1, rest.size() - comma - 2)));
    if (!lo || !hi) return false;
    arr->annotate_range(*lo, *hi);
    return true;
  }

  /// Resolves an operand token to a value. Returns nullptr for an
  /// instruction id that has not been defined (caller defers it), and
  /// also, after recording it in bad_token_, for a malformed token.
  Value* resolve(const std::string& token) {
    if (token.empty()) return nullptr;
    if (token[0] == '%') {
      const auto id = parse_number<int>(std::string_view(token).substr(1));
      if (!id) {
        bad_token_ = token;
        return nullptr;
      }
      const auto it = by_id_.find(*id);
      return it == by_id_.end() ? nullptr : it->second;
    }
    if (token[0] == '@') return function_->array_by_name(token.substr(1));
    if (is_real_literal(token)) {
      if (const auto v = parse_number<double>(token))
        return function_->const_real(*v);
    } else if (const auto v = parse_number<std::int64_t>(token)) {
      return function_->const_int(*v);
    }
    bad_token_ = token;
    return nullptr;
  }

  /// Adds `token` as operand `slot` of `inst`, deferring forward refs.
  void add_operand(Instruction* inst, std::size_t slot, const std::string& token) {
    Value* v = resolve(token);
    if (v) {
      inst->set_operand(slot, v);
    } else {
      pending_.emplace_back(inst, slot, token);
    }
  }

  std::string parse_instruction(BasicBlock* bb, const std::string& line) {
    std::string body = line;
    bool has_result = false;
    int result_id = -1;
    if (body[0] == '%') {
      const std::size_t eq = body.find('=');
      if (eq == std::string::npos) return "missing '='";
      const auto id =
          parse_number<int>(trim(std::string_view(body).substr(1, eq - 1)));
      if (!id) return "bad result id";
      result_id = *id;
      has_result = true;
      body = std::string(trim(body.substr(eq + 1)));
    }
    const std::size_t sp = body.find(' ');
    const std::string opname = sp == std::string::npos ? body : body.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? "" : std::string(trim(body.substr(sp + 1)));
    const auto op = opcode_by_name(opname);
    if (!op) return "unknown opcode '" + opname + "'";

    Instruction* inst = nullptr;
    switch (*op) {
    case Opcode::Phi: {
      // phi TYPE [ tok, block ], [ tok, block ]...
      const std::size_t tsp = rest.find(' ');
      const std::string tname = rest.substr(0, tsp);
      ScalarType type;
      if (tname == "real")
        type = ScalarType::Real;
      else if (tname == "int")
        type = ScalarType::Int;
      else
        return "bad phi type";
      inst = bb->append(std::make_unique<Instruction>(Opcode::Phi, type,
                                                      std::vector<Value*>{}));
      std::size_t cursor = rest.find('[');
      while (cursor != std::string::npos) {
        const std::size_t comma = rest.find(',', cursor);
        const std::size_t close = rest.find(']', cursor);
        if (comma == std::string::npos || close == std::string::npos)
          return "bad phi incoming";
        const std::string tok{trim(rest.substr(cursor + 1, comma - cursor - 1))};
        const std::string bname{trim(rest.substr(comma + 1, close - comma - 1))};
        BasicBlock* from = function_->block_by_name(bname);
        if (!from) return "unknown block " + bname;
        inst->add_incoming(nullptr, from);
        add_operand(inst, inst->num_operands() - 1, tok);
        cursor = rest.find('[', close);
      }
      break;
    }
    case Opcode::ICmp:
    case Opcode::FCmp: {
      const std::size_t psp = rest.find(' ');
      const auto pred = pred_by_name(rest.substr(0, psp));
      if (!pred) return "bad predicate";
      const auto toks = split_fields(rest.substr(psp + 1), ',');
      if (toks.size() != 2) return "cmp needs two operands";
      inst = bb->append(std::make_unique<Instruction>(
          *op, ScalarType::Bool, std::vector<Value*>{nullptr, nullptr}));
      inst->set_predicate(*pred);
      add_operand(inst, 0, std::string(trim(toks[0])));
      add_operand(inst, 1, std::string(trim(toks[1])));
      break;
    }
    case Opcode::Load: {
      // load @A[i][j]...
      const std::size_t bracket = rest.find('[');
      if (rest.empty() || rest[0] != '@' || bracket == std::string::npos)
        return "bad load";
      Array* arr = function_->array_by_name(rest.substr(1, bracket - 1));
      if (!arr) return "unknown array in load";
      std::vector<std::string> idx_tokens;
      std::size_t cursor = bracket;
      while (cursor != std::string::npos && cursor < rest.size() &&
             rest[cursor] == '[') {
        const std::size_t close = rest.find(']', cursor);
        if (close == std::string::npos) return "bad load index";
        idx_tokens.emplace_back(trim(rest.substr(cursor + 1, close - cursor - 1)));
        cursor = close + 1;
      }
      std::vector<Value*> ops(1 + idx_tokens.size(), nullptr);
      ops[0] = arr;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Load,
                                                      ScalarType::Real,
                                                      std::move(ops)));
      for (std::size_t i = 0; i < idx_tokens.size(); ++i)
        add_operand(inst, 1 + i, idx_tokens[i]);
      break;
    }
    case Opcode::Store: {
      // store tok, @A[i][j]...
      const std::size_t comma = rest.find(',');
      if (comma == std::string::npos) return "bad store";
      const std::string vtok{trim(rest.substr(0, comma))};
      const std::string addr{trim(rest.substr(comma + 1))};
      const std::size_t bracket = addr.find('[');
      if (addr.empty() || addr[0] != '@' || bracket == std::string::npos)
        return "bad store address";
      Array* arr = function_->array_by_name(addr.substr(1, bracket - 1));
      if (!arr) return "unknown array in store";
      std::vector<std::string> idx_tokens;
      std::size_t cursor = bracket;
      while (cursor < addr.size() && addr[cursor] == '[') {
        const std::size_t close = addr.find(']', cursor);
        if (close == std::string::npos) return "bad store index";
        idx_tokens.emplace_back(trim(addr.substr(cursor + 1, close - cursor - 1)));
        cursor = close + 1;
      }
      std::vector<Value*> ops(2 + idx_tokens.size(), nullptr);
      ops[1] = arr;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Store,
                                                      ScalarType::Void,
                                                      std::move(ops)));
      add_operand(inst, 0, vtok);
      for (std::size_t i = 0; i < idx_tokens.size(); ++i)
        add_operand(inst, 2 + i, idx_tokens[i]);
      break;
    }
    case Opcode::Br: {
      BasicBlock* target = function_->block_by_name(rest);
      if (!target) return "unknown branch target " + rest;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Br, ScalarType::Void,
                                                      std::vector<Value*>{}));
      inst->set_targets({target});
      break;
    }
    case Opcode::CondBr: {
      const auto toks = split_fields(rest, ',');
      if (toks.size() != 3) return "condbr needs cond and two targets";
      BasicBlock* t = function_->block_by_name(std::string(trim(toks[1])));
      BasicBlock* e = function_->block_by_name(std::string(trim(toks[2])));
      if (!t || !e) return "unknown condbr target";
      inst = bb->append(std::make_unique<Instruction>(
          Opcode::CondBr, ScalarType::Void, std::vector<Value*>{nullptr}));
      inst->set_targets({t, e});
      add_operand(inst, 0, std::string(trim(toks[0])));
      break;
    }
    case Opcode::Ret: {
      inst = bb->append(std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                                      std::vector<Value*>{}));
      break;
    }
    case Opcode::Select: {
      const auto toks = split_fields(rest, ',');
      if (toks.size() != 3) return "select needs three operands";
      // Result type follows the true arm: literal form or earlier def.
      const std::string arm{trim(toks[1])};
      ScalarType type = ScalarType::Real;
      if (Value* v = resolve(arm)) type = v->type();
      inst = bb->append(std::make_unique<Instruction>(
          Opcode::Select, type, std::vector<Value*>{nullptr, nullptr, nullptr}));
      for (std::size_t i = 0; i < 3; ++i)
        add_operand(inst, i, std::string(trim(toks[i])));
      break;
    }
    default: {
      const auto toks = rest.empty() ? std::vector<std::string>{}
                                     : split_fields(rest, ',');
      inst = bb->append(std::make_unique<Instruction>(
          *op, result_type_of(*op), std::vector<Value*>(toks.size(), nullptr)));
      for (std::size_t i = 0; i < toks.size(); ++i)
        add_operand(inst, i, std::string(trim(toks[i])));
      break;
    }
    }

    if (!bad_token_.empty()) return "bad operand '" + bad_token_ + "'";
    if (has_result) by_id_[result_id] = inst;
    return "";
  }

  Module& module_;
  std::string_view text_;
  Function* function_ = nullptr;
  std::map<int, Instruction*> by_id_;
  std::string bad_token_; ///< first malformed operand token, if any
  std::vector<std::tuple<Instruction*, std::size_t, std::string>> pending_;
};

} // namespace

ParseResult parse_function(Module& module, std::string_view text) {
  return Parser(module, text).run();
}

} // namespace luis::ir

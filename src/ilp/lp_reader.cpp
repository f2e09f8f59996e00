#include "ilp/lp_reader.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "support/string_utils.hpp"

namespace luis::ilp {
namespace {

/// Full-token strtod: succeeds only when the entire token is a number.
/// "3.5.2" or "1e" parse a prefix and leave trailing garbage, which the
/// end-pointer check rejects — the bug class this guards against is such
/// tokens being silently misread as 3.5 (or as variable names).
bool parse_full_number(const std::string& tok, double& out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

/// Does the token look like it was meant to be a number? Decides whether a
/// non-number token is a malformed literal (error) or a variable name.
bool looks_numeric(const std::string& tok) {
  if (tok.empty()) return false;
  const char c = tok[0];
  if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') return true;
  if ((c == '+' || c == '-') && tok.size() > 1) {
    const char d = tok[1];
    return std::isdigit(static_cast<unsigned char>(d)) || d == '.';
  }
  return false;
}

/// A raw input line with its 1-based position, kept so every parse error
/// can say where it happened.
struct SrcLine {
  int number = 0;
  std::string text;
};

class Reader {
public:
  explicit Reader(std::string_view text) : text_(text) {}

  LpParseResult run() {
    LpParseResult out;
    std::istringstream is{std::string(text_)};
    std::string line;
    enum class Section { None, Objective, Constraints, Bounds, Integers, Done };
    Section section = Section::None;
    Direction direction = Direction::Minimize;
    std::vector<SrcLine> objective_lines;
    std::vector<SrcLine> constraint_lines;
    std::vector<SrcLine> bounds_lines;
    std::vector<std::string> integer_names;

    int line_no = 0;
    while (std::getline(is, line)) {
      ++line_no;
      const std::string t{trim(line)};
      if (t.empty()) continue;
      if (t == "Minimize" || t == "Maximize") {
        direction = t == "Minimize" ? Direction::Minimize : Direction::Maximize;
        section = Section::Objective;
        continue;
      }
      if (t == "Subject To") {
        section = Section::Constraints;
        continue;
      }
      if (t == "Bounds") {
        section = Section::Bounds;
        continue;
      }
      if (t == "General" || t == "Binary") {
        section = Section::Integers;
        continue;
      }
      if (t == "End") {
        section = Section::Done;
        continue;
      }
      switch (section) {
      case Section::Objective:
        objective_lines.push_back({line_no, line});
        break;
      case Section::Constraints:
        constraint_lines.push_back({line_no, line});
        break;
      case Section::Bounds:
        bounds_lines.push_back({line_no, line});
        break;
      case Section::Integers:
        integer_names.push_back(t);
        break;
      default:
        out.error = at(line_no, line, t) + "unexpected content outside any section: " + t;
        return out;
      }
    }

    // Objective.
    std::string obj_text;
    for (const SrcLine& l : objective_lines) obj_text += std::string(trim(l.text)) + " ";
    LinearExpr objective;
    if (!parse_expr(strip_label(obj_text), objective, objective_lines)) {
      out.error = error_;
      return out;
    }

    // Constraints.
    struct Row {
      LinearExpr expr;
      Sense sense;
      double rhs;
    };
    std::vector<Row> rows;
    for (const SrcLine& l : constraint_lines) {
      std::string body{trim(l.text)};
      const std::size_t colon = body.find(':');
      if (colon != std::string::npos) body = body.substr(colon + 1);
      Sense sense;
      std::size_t rel_at, rel_len;
      if ((rel_at = body.find("<=")) != std::string::npos) {
        sense = Sense::LE;
        rel_len = 2;
      } else if ((rel_at = body.find(">=")) != std::string::npos) {
        sense = Sense::GE;
        rel_len = 2;
      } else if ((rel_at = body.find('=')) != std::string::npos) {
        sense = Sense::EQ;
        rel_len = 1;
      } else {
        out.error = at(l, body) + "constraint without relation: " + body;
        return out;
      }
      Row row;
      row.sense = sense;
      if (!parse_expr(body.substr(0, rel_at), row.expr, {l})) {
        out.error = error_;
        return out;
      }
      const std::string rhs_tok{trim(body.substr(rel_at + rel_len))};
      if (!parse_full_number(rhs_tok, row.rhs) || !std::isfinite(row.rhs)) {
        out.error = at(l, rhs_tok) +
                    "right-hand side must be a finite number, got '" + rhs_tok + "'";
        return out;
      }
      rows.push_back(std::move(row));
    }

    // Bounds: "lo <= name <= hi", either side infinite on its open end
    // (strtod reads -inf, +inf, inf and infinity).
    for (const SrcLine& l : bounds_lines) {
      std::istringstream ls{std::string(trim(l.text))};
      std::string lo_tok, le1, name, le2, hi_tok, extra;
      ls >> lo_tok >> le1 >> name >> le2 >> hi_tok;
      if (le1 != "<=" || le2 != "<=" || hi_tok.empty() || (ls >> extra)) {
        out.error = at(l, lo_tok) + "malformed bounds line (want 'lo <= name <= hi'): " +
                    std::string(trim(l.text));
        return out;
      }
      double lo, hi;
      if (!parse_full_number(lo_tok, lo) || std::isnan(lo) || lo == kInfinity) {
        out.error = at(l, lo_tok) +
                    "lower bound must be a number or -inf, got '" + lo_tok + "'";
        return out;
      }
      if (!parse_full_number(hi_tok, hi) || std::isnan(hi) || hi == -kInfinity) {
        out.error = at(l, hi_tok) +
                    "upper bound must be a number or +inf, got '" + hi_tok + "'";
        return out;
      }
      if (lo > hi) {
        out.error = at(l, lo_tok) + "crossed bounds: lower " + lo_tok +
                    " is above upper " + hi_tok;
        return out;
      }
      bounds_[var(name)] = {lo, hi};
    }

    for (const std::string& name : integer_names) integers_.insert(var(name));

    // Assemble the model (variables in first-use order).
    for (std::size_t j = 0; j < ids_.size(); ++j) {
      double lo = 0.0, hi = kInfinity;
      const auto b = bounds_.find(static_cast<VarId>(j));
      if (b != bounds_.end()) {
        lo = b->second.first;
        hi = b->second.second;
      }
      VarKind kind = VarKind::Continuous;
      if (integers_.count(static_cast<VarId>(j)))
        kind = lo == 0.0 && hi == 1.0 ? VarKind::Binary : VarKind::Integer;
      out.model.add_variable(kind, lo, hi);
    }
    for (Row& row : rows)
      out.model.add_constraint(std::move(row.expr), row.sense, row.rhs);
    out.objective = Objective(direction, std::move(objective));
    return out;
  }

private:
  /// "line L, column C: " locator. The column is where `tok` appears in
  /// the raw line (1-based), or 1 when it cannot be found.
  static std::string at(int line_no, const std::string& raw,
                        const std::string& tok) {
    std::size_t col = tok.empty() ? std::string::npos : raw.find(tok);
    if (col == std::string::npos) col = 0;
    return "line " + std::to_string(line_no) + ", column " +
           std::to_string(col + 1) + ": ";
  }
  static std::string at(const SrcLine& l, const std::string& tok) {
    return at(l.number, l.text, tok);
  }

  /// Locates `tok` among several source lines (multi-line objective).
  static std::string at(const std::vector<SrcLine>& lines,
                        const std::string& tok) {
    for (const SrcLine& l : lines) {
      if (!tok.empty() && l.text.find(tok) != std::string::npos)
        return at(l, tok);
    }
    return lines.empty() ? std::string() : at(lines.front(), tok);
  }

  static std::string strip_label(const std::string& text) {
    const std::size_t colon = text.find(':');
    return colon == std::string::npos ? text : text.substr(colon + 1);
  }

  VarId var(const std::string& name) {
    return ids_.try_emplace(name, static_cast<VarId>(ids_.size())).first->second;
  }

  /// Parses "2 x + 3.5 y - z + 4" into a LinearExpr (trailing constants
  /// fold into the expression constant). `origin` locates errors.
  bool parse_expr(const std::string& text, LinearExpr& expr,
                  const std::vector<SrcLine>& origin) {
    std::istringstream is(text);
    std::string tok;
    double sign = 1.0;
    double pending_coeff = 1.0;
    bool have_coeff = false;
    while (is >> tok) {
      if (tok == "+") {
        if (have_coeff) expr.add_constant(sign * pending_coeff);
        sign = 1.0;
        pending_coeff = 1.0;
        have_coeff = false;
        continue;
      }
      if (tok == "-") {
        if (have_coeff) expr.add_constant(sign * pending_coeff);
        sign = -1.0;
        pending_coeff = 1.0;
        have_coeff = false;
        continue;
      }
      if (double number; parse_full_number(tok, number)) {
        if (have_coeff) {
          error_ = at(origin, tok) + "two consecutive numbers in expression: " + text;
          return false;
        }
        pending_coeff = number;
        if (!std::isfinite(pending_coeff)) {
          error_ = at(origin, tok) + "coefficient must be finite, got '" + tok + "'";
          return false;
        }
        have_coeff = true;
        continue;
      }
      if (looks_numeric(tok)) {
        // Starts like a number but is not one ("3.5.2", "1e+"): reject
        // instead of silently treating it as a variable name.
        error_ = at(origin, tok) + "malformed number '" + tok + "'";
        return false;
      }
      if (tok.empty()) continue;
      // A name: consume the pending coefficient.
      expr.add(var(tok), sign * pending_coeff);
      sign = 1.0;
      pending_coeff = 1.0;
      have_coeff = false;
    }
    if (have_coeff) expr.add_constant(sign * pending_coeff);
    return true;
  }

  std::string_view text_;
  std::map<std::string, VarId> ids_; ///< the file's names, by first use
  std::map<VarId, std::pair<double, double>> bounds_;
  std::set<VarId> integers_;
  std::string error_;
};

} // namespace

LpParseResult parse_lp(std::string_view text) { return Reader(text).run(); }

} // namespace luis::ilp

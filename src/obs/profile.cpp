#include "obs/profile.hpp"

#include <algorithm>

#include "ir/printer.hpp"
#include "obs/build_info.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "support/string_utils.hpp"

namespace luis::obs {

std::vector<std::string> instruction_texts(const ir::Function& f) {
  std::vector<std::string> out;
  const std::string printed = ir::print_function(f);
  bool in_blocks = false; // skips the header and the array declarations
  std::size_t pos = 0;
  while (pos < printed.size()) {
    std::size_t eol = printed.find('\n', pos);
    if (eol == std::string::npos) eol = printed.size();
    const std::string_view line(printed.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.front() != ' ' && line.back() == ':') {
      in_blocks = true;
      continue;
    }
    if (in_blocks && line.size() > 2 && line.substr(0, 2) == "  ")
      out.emplace_back(line.substr(2));
  }
  return out;
}

HotSpotReport build_hotspot_report(const interp::CompiledProgram& p,
                                   const ir::Function& f,
                                   const interp::VmProfile& profile,
                                   const platform::OpTimeTable& table,
                                   const platform::CostModelOptions& opt) {
  LUIS_ASSERT(profile.instr_executions.size() == p.code.size(),
              "profile does not match the compiled program");
  LUIS_ASSERT(profile.edge_applications.size() == p.edges.size(),
              "profile does not match the compiled program edges");

  HotSpotReport rep;
  rep.function_name = p.function_name;
  rep.platform = table.machine();

  // Price of each dense counter slot: exactly what simulated_time pays per
  // increment of that counter.
  std::vector<double> slot_cost(p.counter_keys.size(), 0.0);
  for (std::size_t i = 0; i < p.counter_keys.size(); ++i)
    slot_cost[i] =
        table.op_time(p.counter_keys[i].first, p.counter_keys[i].second);
  const auto billed = [&](std::int32_t counter) {
    return counter >= 0 ? slot_cost[static_cast<std::size_t>(counter)] : 0.0;
  };

  // cost/execs per source ordinal; one extra slot for synthetic code.
  const std::size_t n_ord = p.source_instruction_count;
  std::vector<double> cost(n_ord + 1, 0.0);
  std::vector<long> execs(n_ord + 1, 0);
  const auto slot = [&](std::int32_t src) {
    return src >= 0 ? static_cast<std::size_t>(src) : n_ord;
  };

  using Kind = interp::BInst::Kind;
  for (std::size_t pc = 0; pc < p.code.size(); ++pc) {
    const interp::BInst& bi = p.code[pc];
    const long n = profile.instr_executions[pc];
    if (n == 0) continue;
    double per = 0.0;   // billed on every execution
    double extra = 0.0; // data-dependent (select side)
    switch (bi.kind) {
    case Kind::Arith2:
      per = billed(bi.op_counter) + billed(bi.a.cast_counter) +
            billed(bi.b.cast_counter);
      break;
    case Kind::Arith1:
      per = billed(bi.op_counter) + billed(bi.a.cast_counter);
      break;
    case Kind::CastReal:
      per = billed(bi.a.cast_counter);
      break;
    case Kind::IntToReal:
      per = billed(bi.op_counter);
      break;
    case Kind::Load:
    case Kind::Store:
      per = opt.non_real_op_cost + billed(bi.a.cast_counter);
      break;
    case Kind::RealCmp: // operand casts are compiled out (raw reads)
      per = opt.non_real_op_cost + billed(bi.a.cast_counter) +
            billed(bi.b.cast_counter);
      break;
    case Kind::IntArith:
    case Kind::IntCmp:
    case Kind::SelectInt:
    case Kind::Br:
    case Kind::CondBr:
      per = opt.non_real_op_cost;
      break;
    case Kind::SelectReal: {
      // Only the chosen operand's fetch bills its cast.
      per = opt.non_real_op_cost;
      const long first = profile.select_real_first[pc];
      extra = static_cast<double>(first) * billed(bi.a.cast_counter) +
              static_cast<double>(n - first) * billed(bi.b.cast_counter);
      break;
    }
    case Kind::Ret:
    case Kind::Trap:
      break;
    }
    cost[slot(bi.src)] += static_cast<double>(n) * per + extra;
    execs[slot(bi.src)] += n;
  }

  // Phi moves execute on edge application and may bill a cast; their cost
  // belongs to the phi instruction (PhiMove::dst is the phi's ordinal).
  for (std::size_t e = 0; e < p.edges.size(); ++e) {
    const long n = profile.edge_applications[e];
    if (n == 0) continue;
    const interp::EdgeMoves& em = p.edges[e];
    for (std::int32_t i = 0; i < em.count; ++i) {
      const interp::PhiMove& m = p.moves[static_cast<std::size_t>(em.start + i)];
      const auto s = static_cast<std::size_t>(m.dst);
      execs[s] += n;
      if (m.is_real)
        cost[s] += static_cast<double>(n) * billed(m.rsrc.cast_counter);
    }
  }

  const std::vector<std::string> texts = instruction_texts(f);
  LUIS_ASSERT(texts.size() == n_ord,
              "printed instruction count does not match the program");
  for (std::size_t i = 0; i <= n_ord; ++i) {
    if (execs[i] == 0 && cost[i] == 0.0) continue;
    HotSpot h;
    h.ordinal = i < n_ord ? static_cast<int>(i) : -1;
    h.text = i < n_ord ? texts[i] : "<synthetic>";
    h.executions = execs[i];
    h.cost = cost[i];
    rep.total_cost += cost[i];
    rep.total_executions += execs[i];
    rep.entries.push_back(std::move(h));
  }
  std::sort(rep.entries.begin(), rep.entries.end(),
            [](const HotSpot& a, const HotSpot& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.ordinal < b.ordinal;
            });
  if (rep.total_cost > 0.0)
    for (HotSpot& h : rep.entries) h.share = h.cost / rep.total_cost;
  return rep;
}

std::string hotspot_text(const HotSpotReport& rep, std::size_t top) {
  std::string out = format_string(
      "hot spots of @%s on %s: total modeled time %.6g across %ld executed "
      "instructions\n",
      rep.function_name.c_str(),
      rep.platform.empty() ? "<unnamed platform>" : rep.platform.c_str(),
      rep.total_cost, rep.total_executions);
  out += format_string("%5s %14s %7s %12s  %s\n", "rank", "cost", "share",
                       "execs", "instruction");
  std::size_t rank = 0;
  for (const HotSpot& h : rep.entries) {
    if (top > 0 && rank >= top) {
      out += format_string("  ... %zu more\n", rep.entries.size() - rank);
      break;
    }
    out += format_string("%5zu %14.6g %6.1f%% %12ld  %s\n", ++rank, h.cost,
                         100.0 * h.share, h.executions, h.text.c_str());
  }
  return out;
}

std::string hotspot_json(const HotSpotReport& rep) {
  JsonWriter w;
  w.begin_object();
  w.newline();
  w.key("build");
  w.raw_value(build_info_json());
  w.newline();
  w.key("function");
  w.value(rep.function_name);
  w.key("platform");
  w.value(rep.platform);
  w.key("total_cost");
  w.value(rep.total_cost, "%.17g");
  w.key("total_executions");
  w.value(rep.total_executions);
  w.newline();
  w.key("hotspots");
  w.begin_array();
  w.newline();
  for (const HotSpot& h : rep.entries) {
    w.begin_object();
    w.key("ordinal");
    w.value(static_cast<long>(h.ordinal));
    w.key("instruction");
    w.value(h.text);
    w.key("executions");
    w.value(h.executions);
    w.key("cost");
    w.value(h.cost, "%.17g");
    w.key("share");
    w.value(h.share, "%.6g");
    w.end_object();
    w.newline();
  }
  w.end_array();
  w.newline();
  w.end_object();
  w.newline();
  return w.take();
}

} // namespace luis::obs

// Register-based bytecode for the VM execution engine.
//
// compile_program() lowers a (Function, TypeAssignment) pair once into a
// flat program: blocks linearized with resolved branch targets, dense
// register slots instead of value-map lookups, constants pre-quantized
// into their use format, and every real operation carrying a pre-bound
// kernel function pointer from the numrep kernel table — the fixed /
// posit / float dispatch and the operand-alignment decision are made here,
// not per execution.
//
// The program is pointer-free with respect to its source Function: it
// refers to registers by dense index, arrays by position (bound by name at
// run time), and blocks by id. A program compiled from one Function
// therefore runs against any Function with identical printed IR — which is
// what lets a ProgramCache serve one Function's runs from entries compiled
// on another.
//
// Semantics are bit-identical to run_function(): same quantization entry
// points, same cast/operation cost accounting, same step counting
// (including the phi batches), same trap diagnostics. The differential
// oracle in src/testing enforces this.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "interp/interpreter.hpp"
#include "numrep/kernels.hpp"

namespace luis::interp {

/// Empty: kept only because perfbench's certify workload passes `{}`.
struct CompileOptions {};

/// A real operand resolved at compile time. Fetch order matches the
/// reference interpreter's real_operand(): read raw value (register or
/// pre-quantized immediate), count the cast if one is billed, then apply
/// the conversion if the operand is numerically aligned.
struct RealArg {
  std::int32_t reg = -1;          ///< register index; -1 = immediate
  std::int32_t spec = -1;         ///< index into CompiledProgram::specs
  std::int32_t cast_counter = -1; ///< counter slot billed on fetch; -1 = none
  numrep::QuantFn conv = nullptr; ///< alignment conversion; null = raw
  double imm = 0.0;               ///< immediate (quantized per align rules)
  double shadow_imm = 0.0;        ///< raw source constant (shadow execution)
};

struct IntArg {
  std::int32_t reg = -1; ///< register index; -1 = immediate
  std::int64_t imm = 0;
};

/// One phi assignment performed when control crosses a CFG edge.
struct PhiMove {
  std::int32_t dst = -1;
  bool is_real = false;
  RealArg rsrc;
  IntArg isrc;
};

/// The phi moves of one (target block, predecessor) edge. All moves of an
/// edge read their sources before any destination is written (the
/// simultaneous-read semantics of a phi batch).
struct EdgeMoves {
  std::int32_t start = 0; ///< slice into CompiledProgram::moves
  std::int32_t count = 0;
  std::int32_t trap_msg = -1; ///< >=0: taking this edge raises messages[i]
};

struct BInst {
  enum class Kind : std::uint8_t {
    Arith2,      ///< kernel2(a, b) -> dst
    Arith1,      ///< kernel1(a) -> dst
    CastReal,    ///< fetch(a) -> dst (conversion folded into the fetch)
    IntToReal,   ///< conv(int ia) -> dst
    Load,        ///< array[indices] converted to dst's format
    Store,       ///< fetch(a) -> array[indices]
    IntArith,    ///< op(ia, ib) -> dst
    IntCmp,      ///< pred(ia, ib) -> dst
    RealCmp,     ///< pred(a, b) on raw stored representations -> dst
    SelectReal,  ///< cond ? fetch(a) : fetch(b) -> dst
    SelectInt,   ///< cond ? ia : ib -> dst
    Br,          ///< apply edge0, jump target0
    CondBr,      ///< cond ? (edge0, target0) : (edge1, target1)
    Ret,         ///< successful termination
    Trap,        ///< raise messages[trap_msg] (does not count a step)
  };

  Kind kind = Kind::Trap;
  ir::Opcode op = ir::Opcode::Ret;       ///< source opcode (disassembly, int sub-op)
  ir::CmpPred pred = ir::CmpPred::EQ;
  std::int32_t dst = -1;
  RealArg a, b;
  IntArg ia, ib;
  std::int32_t cond = -1;                ///< boolean register (CondBr, selects)
  numrep::Kernel2 kernel2 = nullptr;
  numrep::Kernel1 kernel1 = nullptr;
  std::int32_t spec = -1;                ///< result QuantSpec (Arith*, IntToReal)
  std::int32_t op_counter = -1;          ///< counter slot for the operation
  std::int32_t array = -1;               ///< index into arrays (Load/Store)
  std::int32_t index_start = 0;          ///< slice into index_args
  std::int32_t index_count = 0;
  std::int32_t target0 = -1, target1 = -1; ///< block ids
  std::int32_t edge0 = -1, edge1 = -1;     ///< indices into edges
  std::int32_t trap_msg = -1;
  /// Source instruction ordinal (block order, phis and terminators
  /// included — the same ordinal as the register slot). -1 for synthetic
  /// instructions (fall-through traps). Lets the profiler map pc-level
  /// execution counts back to IR lines.
  std::int32_t src = -1;
};

struct BlockInfo {
  std::int32_t entry = 0; ///< pc of the block's first non-phi instruction
};

/// Run-time binding requirements of one source array, in declaration
/// order. Buffers are looked up by name in the ArrayStore.
struct ArrayBinding {
  std::string name;
  std::vector<std::int64_t> dims;
  std::int64_t element_count = 0;
  std::int32_t spec = -1;               ///< array's own representation
  numrep::QuantFn init_conv = nullptr;  ///< quantizes initial contents
};

struct CompiledProgram {
  std::string function_name;
  std::vector<BInst> code;
  std::vector<BlockInfo> blocks;       ///< empty = function had no entry block
  std::vector<PhiMove> moves;
  std::vector<EdgeMoves> edges;
  std::int32_t entry_edge = -1;        ///< edge applied before the entry block
  std::vector<IntArg> index_args;
  std::vector<numrep::QuantSpec> specs;
  std::vector<ArrayBinding> arrays;
  /// Dense cost counters: slot i accumulates counter_keys[i]. Only nonzero
  /// slots are materialized into CostCounters at the end of a run.
  std::vector<std::pair<std::string, std::string>> counter_keys;
  std::vector<std::string> messages;   ///< trap diagnostics
  std::int32_t num_regs = 0;
  std::size_t source_instruction_count = 0; ///< shape check at bind time
};

/// Lowers `f` under `types` into a compiled program.
CompiledProgram compile_program(const ir::Function& f,
                                const TypeAssignment& types,
                                const CompileOptions& options = {});

/// Executes a compiled program. `f` must have the same printed IR as the
/// compile-time function (asserted by shape); it is consulted only to
/// attribute register ranges back to Instruction pointers when
/// RunOptions::track_register_ranges is set.
RunResult run_program(const CompiledProgram& program, const ir::Function& f,
                      ArrayStore& store, const RunOptions& options = {});

/// Fills an ErrorProfile's per-array stats, whole-program MPE, and shadow
/// array snapshots from the final buffer contents of a successful run.
/// `quantized` and `shadow` hold one buffer per ArrayBinding, in binding
/// order. Exposed so the fuzz oracle can recompute the same reduction
/// independently.
void finalize_error_profile(ErrorProfile& ep, const CompiledProgram& program,
                            std::span<const std::vector<double>* const> quantized,
                            std::span<const std::vector<double>* const> shadow);

/// Human-readable listing of the program (opcodes via ir::opcode_name).
std::string disassemble(const CompiledProgram& program);

/// Canonical cache key for (f, types): the printed IR plus a positional
/// serialization of every array's and Real instruction's concrete type.
/// Pointer-free, so re-parsed identical-text kernels map to the same key.
std::string program_cache_key(const ir::Function& f,
                              const TypeAssignment& types);

} // namespace luis::interp

// Execution engines: one interface over the two ways LUIS runs IR.
//
// ReferenceEngine is the tree-walking interpreter (run_function) — the
// semantic ground truth. VmEngine lowers the (Function, TypeAssignment)
// pair to bytecode once (interp/bytecode.hpp) and runs the flat program;
// it produces bit-identical results and cost counters, just faster, and
// can share compiled programs across runs through a ProgramCache. The
// differential oracle in src/testing holds the two engines equal.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "interp/bytecode.hpp"
#include "interp/interpreter.hpp"

namespace luis::interp {

enum class EngineKind { Reference, Vm };

const char* to_string(EngineKind kind);

/// Parses "ref"/"reference"/"vm"; nullopt for anything else.
std::optional<EngineKind> parse_engine(std::string_view name);

/// Thread-safe cache of compiled programs, keyed by program_cache_key()
/// (printed IR + positional type serialization). Keys are pointer-free,
/// so distinct Functions with the same printed IR share entries (the
/// sweep's built kernel and its parsed copy do). First insert wins, like
/// the solver cache.
class ProgramCache {
public:
  struct Stats {
    long lookups = 0;
    long hits = 0;
    long insertions = 0;
    double hit_rate() const {
      return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
    }
  };

  std::shared_ptr<const CompiledProgram> lookup(const std::string& key);
  void insert(const std::string& key,
              std::shared_ptr<const CompiledProgram> program);

  Stats stats() const;
  std::size_t size() const;
  void clear();

private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledProgram>>
      entries_;
  Stats stats_;
};

/// One lane of a run_batch() call: a type assignment plus its private
/// array store and optional per-lane VM and shadow-error profiles. Stores
/// must be distinct objects per lane.
struct BatchRequest {
  const TypeAssignment* types = nullptr;
  ArrayStore* store = nullptr;
  VmProfile* profile = nullptr;
  ErrorProfile* errors = nullptr; ///< per-lane shadow-error profile
};

/// Abstract executor of a function under a type assignment. Engines are
/// stateless apart from an optional shared program cache, and safe to use
/// from multiple threads.
class ExecutionEngine {
public:
  virtual ~ExecutionEngine() = default;
  virtual EngineKind kind() const = 0;
  const char* name() const { return to_string(kind()); }

  /// Runs `f` under `types` with run_function() semantics: `store` seeds
  /// and receives array contents; results are bit-identical across
  /// engines. Fills RunResult::compile_seconds / execute_seconds.
  virtual RunResult run(const ir::Function& f, const TypeAssignment& types,
                        ArrayStore& store,
                        const RunOptions& options = {}) const = 0;

  /// Runs `f` under every lane in order, one run() each, and returns the
  /// results in lane order. `options` applies to every lane, except that
  /// each lane's own `profile` and `errors` replace
  /// RunOptions::vm_profile and ::error_profile. A lane that traps only
  /// fails its own result.
  std::vector<RunResult> run_batch(const ir::Function& f,
                                   std::span<const BatchRequest> lanes,
                                   const RunOptions& options = {}) const;
};

/// The tree-walking interpreter behind the interface.
class ReferenceEngine final : public ExecutionEngine {
public:
  EngineKind kind() const override { return EngineKind::Reference; }
  RunResult run(const ir::Function& f, const TypeAssignment& types,
                ArrayStore& store,
                const RunOptions& options = {}) const override;
};

/// Compile-then-execute engine. With a cache, the compile phase becomes a
/// key render + lookup after the first run of each (kernel, assignment).
class VmEngine final : public ExecutionEngine {
public:
  explicit VmEngine(ProgramCache* cache = nullptr) : cache_(cache) {}
  EngineKind kind() const override { return EngineKind::Vm; }
  RunResult run(const ir::Function& f, const TypeAssignment& types,
                ArrayStore& store,
                const RunOptions& options = {}) const override;

private:
  ProgramCache* cache_;
};

std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind,
                                             ProgramCache* cache = nullptr);

} // namespace luis::interp

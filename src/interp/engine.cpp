#include "interp/engine.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/diag.hpp"

namespace luis::interp {

const char* to_string(EngineKind kind) {
  switch (kind) {
  case EngineKind::Reference: return "ref";
  case EngineKind::Vm: return "vm";
  }
  LUIS_UNREACHABLE("unknown engine kind");
}

std::optional<EngineKind> parse_engine(std::string_view name) {
  if (name == "ref" || name == "reference") return EngineKind::Reference;
  if (name == "vm") return EngineKind::Vm;
  return std::nullopt;
}

std::shared_ptr<const CompiledProgram> ProgramCache::lookup(
    const std::string& key) {
  obs::metrics().counter("program_cache.lookups").inc();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  ++stats_.hits;
  obs::metrics().counter("program_cache.hits").inc();
  return it->second;
}

void ProgramCache::insert(const std::string& key,
                          std::shared_ptr<const CompiledProgram> program) {
  std::lock_guard<std::mutex> lock(mutex_);
  // First insert wins: concurrent compilers produced identical programs,
  // but first-wins keeps later hits independent of scheduling.
  if (entries_.emplace(key, std::move(program)).second) {
    ++stats_.insertions;
    obs::metrics().counter("program_cache.insertions").inc();
  }
}

ProgramCache::Stats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<RunResult>
ExecutionEngine::run_batch(const ir::Function& f,
                           std::span<const BatchRequest> lanes,
                           const RunOptions& options) const {
  std::vector<RunResult> results;
  results.reserve(lanes.size());
  for (const BatchRequest& lane : lanes) {
    RunOptions ro = options;
    ro.vm_profile = lane.profile;
    ro.error_profile = lane.errors;
    results.push_back(run(f, *lane.types, *lane.store, ro));
  }
  return results;
}

RunResult ReferenceEngine::run(const ir::Function& f,
                               const TypeAssignment& types, ArrayStore& store,
                               const RunOptions& options) const {
  RunResult result;
  obs::TraceSpan span(
      "ref.execute", "engine",
      [&] { return obs::Args().str("function", f.name()).done(); },
      obs::TimeSink{&result.execute_seconds,
                    &obs::metrics().histogram("engine.ref.execute_seconds")});
  result = run_function(f, types, store, options);
  span.end();
  obs::metrics().counter("engine.ref.runs").inc();
  return result;
}

RunResult VmEngine::run(const ir::Function& f, const TypeAssignment& types,
                        ArrayStore& store, const RunOptions& options) const {
  std::shared_ptr<const CompiledProgram> program;
  bool cache_hit = false;
  double compile_seconds = 0.0;
  {
    obs::TraceSpan span(
        "vm.compile", "engine",
        [&] { return obs::Args().str("function", f.name()).done(); },
        obs::TimeSink{&compile_seconds,
                      &obs::metrics().histogram("engine.vm.compile_seconds")});
    if (cache_) {
      const std::string key = program_cache_key(f, types);
      program = cache_->lookup(key);
      cache_hit = program != nullptr;
      if (!program) {
        program = std::make_shared<const CompiledProgram>(
            compile_program(f, types));
        cache_->insert(key, program);
      }
    } else {
      program = std::make_shared<const CompiledProgram>(
          compile_program(f, types));
    }
  }

  RunResult result;
  obs::TraceSpan span(
      "vm.execute", "engine",
      [&] {
        return obs::Args()
            .str("function", f.name())
            .boolean("cache_hit", cache_hit)
            .done();
      },
      obs::TimeSink{&result.execute_seconds,
                    &obs::metrics().histogram("engine.vm.execute_seconds")});
  result = run_program(*program, f, store, options);
  span.end();
  result.compile_seconds = compile_seconds;
  obs::metrics().counter("engine.vm.runs").inc();
  // The work count behind execute_seconds: summed execute time over summed
  // steps is the VM's time per step.
  obs::metrics().counter("engine.vm.steps").inc(result.steps);
  return result;
}

std::unique_ptr<ExecutionEngine> make_engine(EngineKind kind,
                                             ProgramCache* cache) {
  if (kind == EngineKind::Vm) return std::make_unique<VmEngine>(cache);
  return std::make_unique<ReferenceEngine>();
}

} // namespace luis::interp

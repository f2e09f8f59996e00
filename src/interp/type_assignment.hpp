// Mapping from IR values (virtual registers and arrays) to the concrete
// numeric representation chosen by the tuner. The interpreter executes a
// function *under* a TypeAssignment, which is how the same IR runs both as
// the binary64 reference and as the tuned mixed-precision program.
#pragma once

#include <map>

#include "ir/function.hpp"
#include "numrep/formats.hpp"

namespace luis::interp {

class TypeAssignment {
public:
  /// Every value binary64, the reference representation. Not explicit, so
  /// `{}` converts to it.
  TypeAssignment() = default;
  /// Default representation for values with no explicit entry.
  explicit TypeAssignment(numrep::ConcreteType fallback) : fallback_(fallback) {}

  void set(const ir::Value* value, numrep::ConcreteType type) {
    types_[value] = type;
  }

  const numrep::ConcreteType& of(const ir::Value* value) const {
    const auto it = types_.find(value);
    return it == types_.end() ? fallback_ : it->second;
  }

  bool has_explicit(const ir::Value* value) const { return types_.count(value) > 0; }
  std::size_t size() const { return types_.size(); }
  const std::map<const ir::Value*, numrep::ConcreteType>& entries() const {
    return types_;
  }

  /// Assigns `type` to every Real instruction and array of `f` (the
  /// "retype everything uniformly" baseline, e.g. all-binary32).
  static TypeAssignment uniform(const ir::Function& f, numrep::ConcreteType type);

private:
  numrep::ConcreteType fallback_; ///< binary64 unless constructed with one
  std::map<const ir::Value*, numrep::ConcreteType> types_;
};

} // namespace luis::interp

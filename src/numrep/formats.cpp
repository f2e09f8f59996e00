#include "numrep/formats.hpp"

#include "numrep/registry.hpp"
#include "support/string_utils.hpp"

namespace luis::numrep {

std::string NumericFormat::name() const { return format_ops(*this).name(*this); }

std::string ConcreteType::name() const {
  if (format.is_fixed())
    return format_string("%s.%d", format.name().c_str(), frac_bits);
  return format.name();
}

} // namespace luis::numrep

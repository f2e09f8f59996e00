// Test helper: stable names for suites parameterized over NumericFormat.
// Without them gtest names a case, and the ctest name CMake derives from
// its GetParam() comment, by a byte dump of the struct, padding bytes
// included, which changes from build to build.
#pragma once

#include <cctype>
#include <ostream>
#include <string>

#include "numrep/formats.hpp"

namespace luis::numrep {

/// How gtest prints a NumericFormat GetParam() value: its canonical name.
inline void PrintTo(const NumericFormat& format, std::ostream* os) {
  *os << format.name();
}

/// A gtest case name from a format's canonical name, with every character
/// a test name may not hold replaced by '_'.
inline std::string test_case_name(const NumericFormat& format) {
  std::string name = format.name();
  for (char& c : name)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return name;
}

} // namespace luis::numrep

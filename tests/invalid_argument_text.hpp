// invalid_argument_text.hpp — pin the exact text of an argument check.
#pragma once

#include <stdexcept>
#include <string>

namespace hg {

/// The message `fn` throws as std::invalid_argument, or "" when it returns
/// normally. Any other exception propagates and fails the calling test.
template <class Fn>
std::string invalid_argument_text(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

}  // namespace hg

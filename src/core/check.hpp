// check.hpp — argument checks that cost nothing when they pass.
//
// HG_CHECK(cond, message) throws std::invalid_argument(kCheckScope +
// message) when `cond` is false. The message expression is evaluated only
// then, so a check may build its text with std::to_string or
// shape_to_string without the success path paying for it — several checks
// sit in per-element and per-edge loops.
//
// `kCheckScope` is looked up at the call site: every module that checks
// declares its error prefix once, e.g.
//
//   constexpr char kCheckScope[] = "tensor: ";
//
// so a failed matmul check reads "tensor: matmul inner dimension mismatch:
// [2, 3] x [4, 5]".
#pragma once

#include <stdexcept>
#include <string>

namespace hg::core {

/// The throw behind a failed HG_CHECK. Cold and out of line, so a passing
/// check compiles to a compare and a not-taken branch.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_check_failure(
    const char* scope, const std::string& message) {
  throw std::invalid_argument(scope + message);
}

}  // namespace hg::core

#define HG_CHECK(cond, ...)                                       \
  do {                                                            \
    if (!(cond)) [[unlikely]]                                     \
      ::hg::core::throw_check_failure(kCheckScope, __VA_ARGS__); \
  } while (false)

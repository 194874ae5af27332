// json_common.hpp — the single source of truth for BENCH_*.json emission
// details shared by the two bench emitters (bench_util.hpp's JsonReporter
// for the figure benches, gbench_json.hpp's adapter for the
// Google-Benchmark micro-benches): the JSON string escaping and the baked
// -in git revision. Hoisted here so the emitters cannot drift apart.
#pragma once

#include <string>

// Git revision stamped by bench/CMakeLists.txt at build time, so every
// BENCH_*.json row is attributable to a commit.
#if __has_include("hg_git_rev.hpp")
#include "hg_git_rev.hpp"
#endif
#ifndef HG_GIT_REV
#define HG_GIT_REV "unknown"
#endif

namespace hg::bench {

/// Escape for a double-quoted JSON string literal.
inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// The commit every record of this binary measures.
inline const char* git_rev() { return HG_GIT_REV; }

}  // namespace hg::bench

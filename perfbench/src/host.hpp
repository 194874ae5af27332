// host.hpp — the host context every benchmark record is tagged with, so two
// records are only ever compared when they ran on comparable machines.
#pragma once

#include <cstdint>
#include <string>

namespace pb {

struct HostContext {
  std::int64_t online_cpus = 0;   // sysconf(_SC_NPROCESSORS_ONLN)
  std::string affinity;           // sched_getaffinity mask, as CPU ranges
  std::int64_t affinity_cpus = 0;
  std::string build_type;         // CMAKE_BUILD_TYPE of this binary
  bool hg_native = false;         // HG_NATIVE (-march=native) of the hg libs
  std::string compiler;           // compiler id and version
  std::string git_rev;            // passed in by the launcher; "unknown" if none
  std::int64_t pool_threads = 0;  // hg::core::num_threads() after set-up

  /// One JSON object (no trailing newline).
  std::string to_json() const;
};

/// Everything but git_rev and pool_threads, read from the running process.
HostContext probe_host();

}  // namespace pb

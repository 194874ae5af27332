#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdio>

namespace pb {

namespace {

/// "0-3", "0,2,5-7": the CPUs set in `mask`, as ranges.
std::string cpu_ranges(const cpu_set_t& mask, std::int64_t* count) {
  std::string out;
  *count = 0;
  int start = -1;
  for (int cpu = 0; cpu <= CPU_SETSIZE; ++cpu) {
    const bool set = cpu < CPU_SETSIZE && CPU_ISSET(cpu, &mask);
    if (set) {
      ++*count;
      if (start < 0) start = cpu;
      continue;
    }
    if (start < 0) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(start);
    if (cpu - 1 > start) out += '-' + std::to_string(cpu - 1);
    start = -1;
  }
  return out;
}

}  // namespace

HostContext probe_host() {
  HostContext h;
  h.online_cpus = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0)
    h.affinity = cpu_ranges(mask, &h.affinity_cpus);
  h.build_type = PB_BUILD_TYPE;
  h.hg_native = PB_HG_NATIVE != 0;
  h.compiler = PB_COMPILER;
  h.git_rev = "unknown";
  return h;
}

std::string HostContext::to_json() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"online_cpus\": %lld, \"affinity\": \"%s\", "
                "\"affinity_cpus\": %lld, \"build_type\": \"%s\", "
                "\"hg_native\": %s, \"compiler\": \"%s\", \"git_rev\": \"%s\", "
                "\"num_threads\": %lld}",
                static_cast<long long>(online_cpus), affinity.c_str(),
                static_cast<long long>(affinity_cpus), build_type.c_str(),
                hg_native ? "true" : "false", compiler.c_str(),
                git_rev.c_str(), static_cast<long long>(pool_threads));
  return buf;
}

}  // namespace pb

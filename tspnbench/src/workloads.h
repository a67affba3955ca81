#ifndef TSPNBENCH_WORKLOADS_H_
#define TSPNBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace tspnbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time of one run, split across phases
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string work_dir = ".bench_build/work";
  std::string trace_dir = ".bench_build/traces";
};

/// Each returns false on a set-up failure (no result is printed then);
/// correctness failures are recorded in the report instead.
bool RunWire(const Args& args, Report& report);
bool RunScreen(const Args& args, Report& report);

}  // namespace tspnbench

#endif  // TSPNBENCH_WORKLOADS_H_

// tspnbench: the repository benchmark program. One process runs one workload
// and prints, as its last stdout line, one JSON object with the run's
// correctness, operation counts and metrics (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1).
//
//   tspnbench --workload wire|screen --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--trace-dir DIR]

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "setup.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "tspnbench: %s\nusage: tspnbench --workload wire|screen "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tspnbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (args.seconds <= 0.0) return Usage("--seconds must be positive");

  const std::vector<std::string> env = tspnbench::TspnEnvironment();
  if (!env.empty()) {
    std::string names;
    for (const std::string& name : env) names += " " + name;
    std::fprintf(stderr,
                 "tspnbench: refusing to run with TSPN_* variables set "
                 "(they change serving defaults):%s\n",
                 names.c_str());
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN);  // a dead peer is a failed request, not an exit
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  tspnbench::PrintEnvironment();
  std::printf("run workload %s seed %llu seconds %g trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  tspnbench::Report report;
  bool ran = false;
  if (args.workload == "wire") {
    ran = tspnbench::RunWire(args, report);
  } else if (args.workload == "screen") {
    ran = tspnbench::RunScreen(args, report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (!ran) return 1;
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

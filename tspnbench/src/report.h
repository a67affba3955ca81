#ifndef TSPNBENCH_REPORT_H_
#define TSPNBENCH_REPORT_H_

// Result collection: human-readable phase lines on stdout as the run goes,
// then one JSON object as the last line.

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.h"
#include "stats.h"

namespace tspnbench {

class Report {
 public:
  /// Adds a named metric to the final JSON object.
  void Add(const std::string& name, double value, const std::string& unit);

  /// Adds `prefix.p50` and `prefix.p99`.
  void AddSummary(const std::string& prefix, const Summary& summary,
                  const std::string& unit);

  /// Prints a phase's sent/ok/failed counts, generator lateness and latency
  /// percentiles, and folds its counts into the run's attempted/failed.
  void Phase(const std::string& name, const PhaseResult& result);

  /// Folds operations checked outside a load phase (ladder rungs, probes).
  void Count(const std::string& what, int64_t attempted, int64_t failed,
             int64_t mismatched);

  /// Marks the run incorrect, with the reason printed.
  void Fail(const std::string& reason);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Prints nproc, the CPU model and the effective serving options, so a
/// result always says what it ran with.
void PrintEnvironment();

/// Writes spans as JSON lines to `path`; false on I/O failure.
bool WriteSpans(const std::string& path, const std::string& phase,
                const std::vector<Span>& spans, bool append);

}  // namespace tspnbench

#endif  // TSPNBENCH_REPORT_H_

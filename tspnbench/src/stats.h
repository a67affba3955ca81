#ifndef TSPNBENCH_STATS_H_
#define TSPNBENCH_STATS_H_

// Percentile, open-loop timing and layer-ladder arithmetic. Header-only so
// the self-tests pin exactly what the benchmark reports.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tspnbench {

/// 1-based nearest rank of the p-th percentile among n samples: the
/// smallest rank whose share of samples at or below it is at least p.
inline size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(rank < 1.0 ? 1 : static_cast<size_t>(rank), 1, n);
}

/// Nearest-rank percentile (p in (0, 1]); 0 on empty input.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t idx = NearestRank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

/// Samples strictly above the nearest-rank p-th percentile's rank — a p99
/// is only reported as such with at least ten of them.
inline size_t SamplesBeyond(size_t n, double p) {
  return n - NearestRank(n, p);
}

struct Summary {
  int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline Summary Summarize(const std::vector<double>& values) {
  return {static_cast<int64_t>(values.size()), Percentile(values, 0.50),
          Percentile(values, 0.99)};
}

/// Open-loop latency: from the time a request was *scheduled* to be sent
/// until its reply was decoded, so a generator or server stall is charged
/// to every request it delayed (no coordinated omission).
inline double OpenLoopLatency(double scheduled_s, double decoded_s) {
  return decoded_s - scheduled_s;
}

/// How late the generator began sending a request against its schedule.
inline double Lateness(double scheduled_s, double started_s) {
  return std::max(0.0, started_s - scheduled_s);
}

/// Closed-loop throughput: `completed` replies per second from the start
/// of a burst (time 0) until the last of them was decoded, given each
/// reply's send time and latency. Replies complete a batch at a time, so
/// counting only those within a fixed window would round the figure to
/// whole batches; this ratio does not.
inline double BurstRate(const std::vector<double>& sent_s,
                        const std::vector<double>& latency_ms,
                        int64_t completed) {
  double last_s = 0.0;
  for (size_t i = 0; i < sent_s.size() && i < latency_ms.size(); ++i) {
    last_s = std::max(last_s, sent_s[i] + latency_ms[i] / 1e3);
  }
  return last_s > 0.0 ? static_cast<double>(completed) / last_s : 0.0;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Layer ladder: `rows[i][r]` is the time of request i entering the system
/// at rung r (bottom first, each rung wrapping the one below), all rungs
/// timed on the same request. Returns, per rung, each request's self time:
/// its rung time minus the rung below on the same request (the bottom rung
/// is all self time). Pairing by request removes request-to-request cost
/// differences from every self time, and the per-rung means sum exactly to
/// the mean of the top rung.
inline std::vector<std::vector<double>> PairedSelfTimes(
    const std::vector<std::vector<double>>& rows) {
  const size_t rungs = rows.empty() ? 0 : rows.front().size();
  std::vector<std::vector<double>> self(rungs);
  for (const std::vector<double>& row : rows) {
    for (size_t r = 0; r < rungs; ++r) {
      self[r].push_back(r == 0 ? row[0] : row[r] - row[r - 1]);
    }
  }
  return self;
}

}  // namespace tspnbench

#endif  // TSPNBENCH_STATS_H_

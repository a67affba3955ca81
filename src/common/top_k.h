#ifndef TSPN_COMMON_TOP_K_H_
#define TSPN_COMMON_TOP_K_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tspn::common {

/// Indices of the k largest entries of scores[0..n), ordered by (score desc,
/// index asc); empty for k <= 0, every index for k >= n. The order is total,
/// so the result is the prefix of a full deterministic ranking, and the
/// top-2k of the same scores extends the top-k.
///
/// k < n is one pass over the scores. A buffer of {score, index} pairs holds
/// the best k seen so far plus what was admitted since; `bar` is the worst
/// kept score. A later entry is admitted only when its score is strictly
/// above the bar: one equal to it comes after every kept entry of that score
/// in index order, so it can never displace one. When the buffer reaches 2k
/// pairs an nth_element cuts it back to its best k and raises the bar. Most
/// entries cost one compare, and no index array of size n is built.
inline std::vector<int64_t> TopKIndices(const float* scores, int64_t n,
                                        int64_t k) {
  struct Entry {
    float score;
    int64_t index;
  };
  auto better = [](const Entry& a, const Entry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.index < b.index;
  };
  if (k <= 0 || n <= 0) return {};
  k = std::min(k, n);
  std::vector<Entry> kept;
  kept.reserve(static_cast<size_t>(k < n ? 2 * k : n));
  for (int64_t i = 0; i < k; ++i) kept.push_back({scores[i], i});
  if (k < n) {
    // Keeps the best k of the buffer; returns the k-th best score.
    auto cut = [&] {
      std::nth_element(kept.begin(), kept.begin() + (k - 1), kept.end(),
                       better);
      kept.resize(static_cast<size_t>(k));
      return kept.back().score;
    };
    float bar = cut();
    for (int64_t i = k; i < n; ++i) {
      if (scores[i] > bar) {
        kept.push_back({scores[i], i});
        if (static_cast<int64_t>(kept.size()) == 2 * k) bar = cut();
      }
    }
    if (static_cast<int64_t>(kept.size()) > k) cut();
  }
  std::sort(kept.begin(), kept.end(), better);
  std::vector<int64_t> order;
  order.reserve(kept.size());
  for (const Entry& e : kept) order.push_back(e.index);
  return order;
}

}  // namespace tspn::common

#endif  // TSPN_COMMON_TOP_K_H_

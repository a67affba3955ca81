#include "common/top_k.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tspn::common {
namespace {

/// The definition: the first min(k, n) entries of a full (score desc,
/// index asc) sort of every index; empty for k <= 0.
std::vector<int64_t> FullSortPrefix(const std::vector<float>& scores,
                                    int64_t k) {
  std::vector<int64_t> order(scores.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const float sa = scores[static_cast<size_t>(a)];
    const float sb = scores[static_cast<size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  order.resize(static_cast<size_t>(
      std::clamp<int64_t>(k, 0, static_cast<int64_t>(order.size()))));
  return order;
}

struct Input {
  std::string name;
  std::vector<float> scores;
};

std::vector<Input> InputsOfSize(int64_t n) {
  Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  const size_t size = static_cast<size_t>(n);
  std::vector<Input> inputs;
  Input ascending{"ascending", std::vector<float>(size)};
  Input descending{"descending", std::vector<float>(size)};
  Input equal{"all_equal", std::vector<float>(size, 0.25f)};
  Input quantised{"quantised_ties", std::vector<float>(size)};
  Input zeros{"signed_zeros", std::vector<float>(size)};
  Input random{"random", std::vector<float>(size)};
  for (size_t i = 0; i < size; ++i) {
    ascending.scores[i] = static_cast<float>(i) * 0.5f - 3.0f;
    descending.scores[i] = 3.0f - static_cast<float>(i) * 0.5f;
    // Eight levels, so every kept set cuts through a run of ties.
    quantised.scores[i] =
        std::floor(static_cast<float>(rng.Uniform()) * 8.0f) / 8.0f;
    // -0.0 == +0.0: the two rank as ties, by index, among a few negatives.
    const uint64_t draw = rng.NextU64() % 5;
    zeros.scores[i] = draw == 0 ? -1.0f : (draw % 2 == 0 ? 0.0f : -0.0f);
    random.scores[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  for (Input* input : {&ascending, &descending, &equal, &quantised, &zeros,
                       &random}) {
    inputs.push_back(std::move(*input));
  }
  return inputs;
}

TEST(TopKIndicesTest, MatchesFullSortPrefix) {
  for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{103}, int64_t{9216}}) {
    for (const Input& input : InputsOfSize(n)) {
      for (int64_t k : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{64},
                        n - 1, n, n + 5}) {
        EXPECT_EQ(TopKIndices(input.scores.data(), n, k),
                  FullSortPrefix(input.scores, k))
            << input.name << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(TopKIndicesTest, NonPositiveKOrEmptyInputIsEmpty) {
  const std::vector<float> scores = {0.5f, -1.0f, 2.0f};
  EXPECT_TRUE(TopKIndices(scores.data(), 3, 0).empty());
  EXPECT_TRUE(TopKIndices(scores.data(), 3, -4).empty());
  EXPECT_TRUE(TopKIndices(scores.data(), 0, 2).empty());
}

}  // namespace
}  // namespace tspn::common

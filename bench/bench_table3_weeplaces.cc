// Reproduces Table III: Recall/NDCG/MRR comparison on the two state-wide
// sparse (Weeplaces-like) datasets.

#include "bench/bench_common.h"

int main() {
  using namespace tspn;
  bench::BenchSettings settings = bench::DefaultSettings();
  std::printf("Table III — result comparison on the state-wide datasets "
              "(California-sim / Florida-sim)\n");
  bench::RunComparisonTable(
      "Weeplaces(California-sim)",
      bench::MakeDataset(data::CityProfile::WeeplacesCalifornia()), settings);
  bench::RunComparisonTable(
      "Weeplaces(Florida-sim)",
      bench::MakeDataset(data::CityProfile::WeeplacesFlorida()), settings);
  std::printf(
      "\nShape check vs paper Table III: the paper keeps TSPN-RA on top under "
      "sparse state-wide distributions; STiSAN degrades relative to its urban "
      "showing (nearest-negative sampling weakness). Default-budget caveats "
      "as in Table II.\n");
  return 0;
}

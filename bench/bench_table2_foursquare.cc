// Reproduces Table II: Recall/NDCG/MRR comparison of all models on the two
// urban (Foursquare-like) datasets.

#include "bench/bench_common.h"

int main() {
  using namespace tspn;
  bench::BenchSettings settings = bench::DefaultSettings();
  std::printf("Table II — result comparison on the urban datasets "
              "(TKY-sim / NYC-sim)\n");
  bench::RunComparisonTable("Foursquare(TKY-sim)",
                            bench::MakeDataset(data::CityProfile::FoursquareTky()),
                            settings);
  bench::RunComparisonTable("Foursquare(NYC-sim)",
                            bench::MakeDataset(data::CityProfile::FoursquareNyc()),
                            settings);
  std::printf(
      "\nShape check vs paper Table II: the paper has TSPN-RA first on every "
      "metric with DeepMove/LSTPM/Graph-Flashback as the strongest baselines "
      "and MC/STRNN trailing. At default CPU budgets TSPN-RA reaches the "
      "upper-middle of the field; TSPN_BENCH_EPOCHS and "
      "TSPN_BENCH_TRAIN_SAMPLES raise the training budget.\n");
  return 0;
}

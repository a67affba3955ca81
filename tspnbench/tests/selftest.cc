// Self-tests for the benchmark's own arithmetic and checks: percentiles,
// open-loop lateness, ladder self times, and that a reply differing from
// its reference is counted as a failed operation end to end through the
// load generator.

#include <unistd.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "serve/codec.h"
#include "serve/frame_handler.h"
#include "serve/frame_server.h"
#include "stats.h"

namespace tspnbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> values(100);
  std::iota(values.begin(), values.end(), 1.0);
  EXPECT_EQ(Percentile(values, 0.50), 50.0);
  EXPECT_EQ(Percentile(values, 0.99), 99.0);
  EXPECT_EQ(Percentile(values, 1.00), 100.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  // Order of the input does not matter.
  std::vector<double> reversed(values.rbegin(), values.rend());
  EXPECT_EQ(Percentile(reversed, 0.50), 50.0);
}

TEST(Percentile, TenSamplesBeyondP99NeedsAThousand) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(2000, 0.99), 20u);
  std::vector<double> values(1000);
  std::iota(values.begin(), values.end(), 1.0);
  EXPECT_EQ(Percentile(values, 0.99), 990.0);
}

TEST(OpenLoop, LatencyIsChargedFromTheSchedule) {
  // Due at 1.000 s, sent at 1.004 s (4 ms late), reply decoded at 1.010 s:
  // the request waited 10 ms from its user's point of view, not 6.
  EXPECT_NEAR(Lateness(1.000, 1.004), 0.004, 1e-12);
  EXPECT_NEAR(OpenLoopLatency(1.000, 1.010), 0.010, 1e-12);
  // Sending early is not negative lateness.
  EXPECT_EQ(Lateness(1.000, 0.999), 0.0);
}

TEST(ClosedLoop, BurstRateIsNotRoundedToWholeBatches) {
  // Batches of 32 replies every 25 ms, the last decoded at 0.1 s: 128
  // replies over 0.1 s, wherever a fixed counting window would end.
  std::vector<double> sent_s;
  std::vector<double> latency_ms;
  for (int batch = 1; batch <= 4; ++batch) {
    for (int i = 0; i < 32; ++i) {
      sent_s.push_back(0.025 * (batch - 1));
      latency_ms.push_back(25.0);
    }
  }
  EXPECT_NEAR(BurstRate(sent_s, latency_ms, 128), 1280.0, 1e-9);
  EXPECT_EQ(BurstRate({}, {}, 0), 0.0);
}

TEST(Ladder, SelfTimesSumToTopRung) {
  // Three requests timed at four rungs; costs differ per request.
  const std::vector<std::vector<double>> rows = {{310.5, 1290.25, 1301.0, 1950.75},
                                                 {120.0, 400.0, 455.5, 990.0},
                                                 {505.25, 900.0, 960.0, 1700.5}};
  const std::vector<std::vector<double>> self = PairedSelfTimes(rows);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0][1], 120.0);
  EXPECT_EQ(self[2][0], 1301.0 - 1290.25);
  double sum = 0.0;
  for (const std::vector<double>& layer : self) sum += Mean(layer);
  std::vector<double> top;
  for (const std::vector<double>& row : rows) top.push_back(row.back());
  EXPECT_NEAR(sum, Mean(top), 1e-9);
  EXPECT_TRUE(PairedSelfTimes({}).empty());
}

TEST(Deck, SameSeedSameOrderAndWholePasses) {
  const std::vector<int32_t> a = DeckOrder(10, 25, 42);
  EXPECT_EQ(a, DeckOrder(10, 25, 42));
  EXPECT_NE(a, DeckOrder(10, 25, 43));
  ASSERT_EQ(a.size(), 25u);
  std::vector<int32_t> first(a.begin(), a.begin() + 10);
  std::sort(first.begin(), first.end());
  for (int32_t i = 0; i < 10; ++i) EXPECT_EQ(first[static_cast<size_t>(i)], i);
}

tspn::eval::RecommendResponse ReplyFor(int32_t user, bool perturb) {
  tspn::eval::RecommendResponse response;
  response.stages_used = 2;
  response.tiles_screened = 4;
  tspn::eval::ScoredPoi item;
  item.poi_id = user;
  item.score = 0.5f;
  if (perturb) item.score = std::nextafter(item.score, 1.0f);  // one ulp
  item.tile_index = 3;
  response.items.push_back(item);
  return response;
}

TEST(Judge, OneUlpIsAMismatch) {
  Job job;
  job.ref = ReplyFor(5, false);
  EXPECT_EQ(Judge(job, DecodeReply(job, tspn::serve::EncodeRecommendResponse(
                                            ReplyFor(5, false)))),
            Outcome::kOk);
  EXPECT_EQ(Judge(job, DecodeReply(job, tspn::serve::EncodeRecommendResponse(
                                            ReplyFor(5, true)))),
            Outcome::kMismatch);
  EXPECT_EQ(Judge(job, DecodeReply(job, tspn::serve::EncodeErrorFrame(
                                            "shed", tspn::serve::ErrorCode::kShedCapacity))),
            Outcome::kServerError);
  EXPECT_EQ(Judge(job, DecodeReply(job, {1, 2, 3})), Outcome::kTransport);
}

/// Answers every request with the reference reply for its user, except
/// users with user % 4 == 3, whose score is perturbed by one ulp.
class PerturbingHandler : public tspn::serve::FrameHandler {
 public:
  void HandleFrameAsync(const std::vector<uint8_t>& frame,
                        FrameCallback done) override {
    std::string endpoint;
    tspn::eval::RecommendRequest request;
    tspn::serve::AdmissionClass admission;
    if (tspn::serve::DecodeRecommendRequest(frame, &endpoint, &request,
                                            &admission) !=
        tspn::serve::DecodeStatus::kOk) {
      done(tspn::serve::EncodeErrorFrame("bad frame",
                                         tspn::serve::ErrorCode::kBadFrame));
      return;
    }
    const int32_t user = request.sample.user;
    done(tspn::serve::EncodeRecommendResponse(ReplyFor(user, user % 4 == 3)));
  }
};

class PerturbedServer : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int32_t user = 0; user < 8; ++user) {
      Job job;
      job.request.sample.user = user;
      job.ref = ReplyFor(user, false);
      pool_.push_back(job);
    }
    tspn::serve::FrameServerOptions options;
    options.io_threads = 1;
    options.unix_path = "selftest-" + std::to_string(::getpid()) + ".sock";
    server_ = std::make_unique<tspn::serve::FrameServer>(handler_, options);
    ASSERT_TRUE(server_->Start());
  }
  void TearDown() override { server_->Stop(); }

  /// Failures the handler injected among the first `sent` requests.
  int64_t Perturbed(const Traffic& traffic, int64_t sent) const {
    int64_t n = 0;
    for (int64_t i = 0; i < sent; ++i) {
      const int32_t idx = traffic.order[static_cast<size_t>(i) % traffic.order.size()];
      n += pool_[static_cast<size_t>(idx)].request.sample.user % 4 == 3;
    }
    return n;
  }

  Traffic MakeTraffic() const {
    Traffic traffic;
    traffic.endpoint = "e";
    traffic.pool = &pool_;
    traffic.order = DeckOrder(pool_.size(), 64, 9);
    return traffic;
  }

  PerturbingHandler handler_;
  std::unique_ptr<tspn::serve::FrameServer> server_;
  std::vector<Job> pool_;
};

TEST_F(PerturbedServer, OpenLoopCountsPerturbedRepliesAsFailed) {
  OpenStream stream;
  stream.address = server_->address();
  stream.traffic = MakeTraffic();
  stream.rate_hz = 200.0;
  const PhaseResult r = RunOpenLoop({stream}, 0.2, /*trace=*/true)[0];
  ASSERT_EQ(r.sent, 40);
  const int64_t bad = Perturbed(stream.traffic, r.sent);
  EXPECT_GT(bad, 0);
  EXPECT_EQ(r.failed, bad);
  EXPECT_EQ(r.mismatched, bad);
  EXPECT_EQ(r.ok, r.sent - bad);
  EXPECT_EQ(static_cast<int64_t>(r.latency_ms.size()), r.ok);
  EXPECT_EQ(r.late_ms.size(), 40u);
  EXPECT_EQ(r.spans.size(), 40u);
}

TEST_F(PerturbedServer, ClosedLoopCountsPerturbedRepliesAsFailed) {
  ClosedStream stream;
  stream.address = server_->address();
  stream.traffic = MakeTraffic();
  stream.depth = 4;
  const PhaseResult r = RunClosedLoop({stream}, 0.1, /*trace=*/false)[0];
  ASSERT_GT(r.sent, 0);
  const int64_t bad = Perturbed(stream.traffic, r.sent);
  EXPECT_EQ(r.failed, bad);
  EXPECT_EQ(r.ok, r.sent - bad);
}

}  // namespace
}  // namespace tspnbench

#include "ladder.h"

#include <chrono>
#include <numeric>

#include "common/rng.h"
#include "graph/qrp_graph.h"
#include "nn/kernels.h"
#include "plan/itinerary.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "setup.h"

namespace tspnbench {
namespace {

using Clock = std::chrono::steady_clock;
using tspn::eval::RecommendRequest;
using tspn::eval::RecommendResponse;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Decodes a wire reply; false for an error or undecodable frame.
bool DecodeResponse(const std::vector<uint8_t>& frame, RecommendResponse* out) {
  return !frame.empty() &&
         tspn::serve::DecodeRecommendResponse(frame, out) ==
             tspn::serve::DecodeStatus::kOk;
}

}  // namespace

const char* SelfTimeName(int rung) {
  static const char* const kNames[kNumRungs] = {
      "core.tspn_ra.rank_tiles_us",      "core.tspn_ra.stage2_us",
      "core.tspn_ra.batch1_self_us",     "serve.inference_engine.self_us",
      "serve.gateway.self_us",           "serve.codec.self_us",
      "serve.frame_server.self_us",      "serve.cluster.router.self_us"};
  return kNames[rung];
}

LadderResult RunLadder(const LadderTargets& t,
                       const tspn::data::CityDataset& dataset,
                       const std::vector<Job>& items, double seconds) {
  LadderResult result;
  const int32_t top_k = t.model->config().top_k_tiles;

  // Untimed references for the two outputs the pool does not carry: the
  // stage-1 ranking and the constrained variant's reply.
  std::vector<std::vector<int64_t>> ranked(items.size());
  std::vector<RecommendRequest> constrained(items.size());
  std::vector<RecommendResponse> constrained_ref(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ranked[i] = t.model->RankTilesTopK(items[i].request.sample, top_k);
    constrained[i] = Constrained(dataset, items[i].request);
    constrained_ref[i] = t.model->Recommend(constrained[i]);
  }

  tspn::serve::FrameClient shard;
  tspn::serve::FrameClient router;
  for (auto [client, address] : {std::make_pair(&shard, &t.shard),
                                 std::make_pair(&router, &t.router)}) {
    client->set_recv_timeout_ms(10000);
    client->Connect(*address);
  }

  // Each rung returns whether its output equals the reference.
  auto rung = [&](int r, size_t i) -> bool {
    const RecommendRequest& request = items[i].request;
    const RecommendResponse& ref = items[i].ref;
    RecommendResponse out;
    switch (r) {
      case kRankTiles:
        return t.model->RankTilesTopK(request.sample, top_k) == ranked[i];
      case kRecommend:
        out = t.model->Recommend(request);
        break;
      case kBatch1: {
        RecommendRequest one = request;
        out = t.model->RecommendBatch(tspn::common::Span<RecommendRequest>(&one, 1))
                  .front();
        break;
      }
      case kEngine:
        out = t.engine->Submit(request).get();
        break;
      case kGateway:
        out = t.gateway->Submit(t.endpoint, request).get();
        break;
      case kCodec:
        if (!DecodeResponse(t.gateway->ServeFrame(tspn::serve::EncodeRecommendRequest(
                                t.endpoint, request)),
                            &out)) {
          return false;
        }
        break;
      case kFrameServer:
      case kRouter: {
        tspn::serve::FrameClient& client = r == kRouter ? router : shard;
        if (!DecodeResponse(client.Call(tspn::serve::EncodeRecommendRequest(
                                t.endpoint, request)),
                            &out)) {
          return false;
        }
        break;
      }
      default:
        return false;
    }
    return SameResponse(out, ref);
  };

  // times[item][rung]: every successful timing; rung kNumRungs is the
  // constrained Recommend, timed beside the chain rather than in it.
  std::vector<std::vector<std::vector<double>>> times(
      items.size(), std::vector<std::vector<double>>(kNumRungs + 1));
  // Rung order is shuffled every pass: a rung run right after another rung
  // on the same model instance finds that request's data in cache, so any
  // fixed order (rotations included) would favour whichever rung follows
  // its own lower neighbour.
  std::vector<int> order(kNumRungs + 1);
  std::iota(order.begin(), order.end(), 0);
  tspn::common::Rng rng(1);
  const Clock::time_point start = Clock::now();
  for (size_t pass = 0; SecondsSince(start) < seconds; ++pass) {
    const size_t i = pass % items.size();
    ++result.passes;
    for (size_t k = order.size() - 1; k > 0; --k) {
      std::swap(order[k], order[static_cast<size_t>(
                              rng.UniformInt(static_cast<int64_t>(k) + 1))]);
    }
    for (const int r : order) {
      bool ok = false;
      const Clock::time_point t0 = Clock::now();
      double us = 0.0;
      if (r == kNumRungs) {
        const RecommendResponse out = t.model->Recommend(constrained[i]);
        us = MicrosSince(t0);
        ok = SameResponse(out, constrained_ref[i]);
      } else {
        try {
          ok = rung(r, i);
        } catch (const std::exception&) {
          ok = false;
        }
        us = MicrosSince(t0);
      }
      ++result.attempted;
      if (ok) {
        times[i][static_cast<size_t>(r)].push_back(us);
      } else {
        ++result.failed;
        ++result.mismatched;
      }
    }
  }
  for (const std::vector<std::vector<double>>& item : times) {
    std::vector<double> row;
    for (const std::vector<double>& rung_times : item) {
      if (rung_times.empty()) break;
      row.push_back(Percentile(rung_times, 0.5));
    }
    if (row.size() != kNumRungs + 1) continue;  // not every rung succeeded
    result.constraint_extra_us.push_back(row[kNumRungs] - row[kRecommend]);
    row.pop_back();
    result.rows.push_back(std::move(row));
  }
  return result;
}

GemmProbe ProbeGemm(int64_t dm, int64_t tiles, double seconds) {
  constexpr int64_t kRows = 32;
  GemmProbe probe;
  tspn::common::Rng rng(7);
  std::vector<float> y(static_cast<size_t>(kRows * dm));
  std::vector<float> z(static_cast<size_t>(tiles * dm));
  std::vector<float> c(static_cast<size_t>(kRows * tiles));
  for (float& v : y) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : z) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  probe.flops = 2.0 * kRows * dm * tiles;
  probe.bytes = 4.0 * (kRows * dm + tiles * dm + kRows * tiles);
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    tspn::nn::kernels::DotProductGemm(y.data(), z.data(), c.data(), kRows,
                                      tiles, dm, /*accumulate=*/false);
    probe.us.push_back(MicrosSince(t0));
  }
  return probe;
}

std::vector<double> ProbeQrpBuild(const tspn::data::CityDataset& dataset,
                                  const std::vector<Job>& items,
                                  int64_t max_history, double seconds) {
  std::vector<std::vector<int64_t>> histories;
  for (const Job& job : items) {
    std::vector<int64_t> history =
        dataset.HistoryPoiIds(job.request.sample.user, job.request.sample.traj);
    if (static_cast<int64_t>(history.size()) > max_history) {
      history.erase(history.begin(), history.end() - max_history);
    }
    histories.push_back(std::move(history));
  }
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
    const Clock::time_point t0 = Clock::now();
    tspn::graph::BuildQrpGraph(dataset.quadtree(), dataset.leaf_adjacency(),
                               dataset.pois(), histories[i % histories.size()]);
    us.push_back(MicrosSince(t0));
  }
  return us;
}

BatchProbe ProbeBatches(const tspn::eval::NextPoiModel& model,
                        const std::vector<Job>& items,
                        const std::vector<int32_t>& order, size_t batch,
                        double seconds) {
  BatchProbe probe;
  std::vector<RecommendRequest> requests(batch);
  std::vector<const Job*> jobs(batch);
  size_t next = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    for (size_t b = 0; b < batch; ++b) {
      jobs[b] = &items[static_cast<size_t>(order[next++ % order.size()])];
      requests[b] = jobs[b]->request;
    }
    const Clock::time_point t0 = Clock::now();
    probe.start_s.push_back(SecondsSince(start));
    const std::vector<RecommendResponse> out = model.RecommendBatch(
        tspn::common::Span<RecommendRequest>(requests.data(), requests.size()));
    probe.us.push_back(MicrosSince(t0));
    for (size_t b = 0; b < batch; ++b) {
      if (b >= out.size() || !SameResponse(out[b], jobs[b]->ref)) {
        ++probe.failed;
      }
    }
    probe.requests += static_cast<int64_t>(batch);
  }
  probe.seconds = SecondsSince(start);
  return probe;
}

PlanProbe ProbePlans(const tspn::eval::NextPoiModel& model,
                     const std::shared_ptr<const tspn::data::CityDataset>& dataset,
                     const std::vector<Job>& plans,
                     const std::vector<int32_t>& order, double seconds) {
  PlanProbe probe;
  const tspn::plan::ItineraryPlanner planner(
      model, dataset, tspn::plan::PlannerOptions::FromEnv());
  double expansions = 0.0;
  double rollouts = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; SecondsSince(start) < seconds || i % plans.size() != 0;
       ++i) {
    const Job& job = plans[static_cast<size_t>(order[i % order.size()])];
    tspn::plan::ItineraryResponse response;
    const Clock::time_point t0 = Clock::now();
    probe.start_s.push_back(SecondsSince(start));
    const bool ok = planner.Plan(job.plan_request, &response);
    probe.us.push_back(MicrosSince(t0));
    if (!ok || !SameItinerary(response, job.plan_ref)) ++probe.failed;
    expansions += static_cast<double>(response.expansions);
    rollouts += static_cast<double>(response.rollouts_scored);
  }
  if (!probe.us.empty()) {
    probe.expansions = expansions / static_cast<double>(probe.us.size());
    probe.rollouts = rollouts / static_cast<double>(probe.us.size());
  }
  return probe;
}

}  // namespace tspnbench

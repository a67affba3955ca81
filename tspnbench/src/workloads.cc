#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "common/stopwatch.h"
#include "core/tspn_ra.h"
#include "ladder.h"
#include "setup.h"
#include "stats.h"

namespace tspnbench {
namespace {

using tspn::common::SocketAddress;
using tspn::common::Stopwatch;
using tspn::eval::NextPoiModel;

/// Set-up is repeated and its median reported, so one slow build does not
/// move setup_s.
constexpr int kSetups = 3;

/// Itinerary jobs per pool. Plan costs differ widely from job to job, with
/// gaps between them; itinerary segments run whole passes, and over an odd
/// count the median falls inside the copies of the middle job rather than
/// in a gap between two jobs.
constexpr size_t kItineraryPool = 25;

/// Shares of a traced run's --seconds given to the layer ladder and to each
/// single-layer probe, and of each latency segment's length given to the
/// untraced copy it is compared with (the load phases keep their untraced
/// lengths, so the traced run's phases are comparable to the untraced run's).
constexpr double kLadderShare = 0.25;
constexpr double kProbeShare = 0.03;
constexpr double kUntracedShare = 0.35;
/// Swaps between checkpoints A and B, after the phases, that time
/// serve.gateway.swap_ms.
constexpr int kLadderSwaps = 3;
/// Requests the ladder cycles through: few enough that each is repeated
/// several times per run, so its per-rung medians are steady.
constexpr size_t kLadderItems = 32;

ModelSpec WireSpec() {
  ModelSpec spec;
  spec.profile = tspn::data::CityProfile::FoursquareNyc();
  spec.options.dm = 32;
  spec.options.image_resolution = 16;
  return spec;
}

/// ScreenStress: a 96x96 grid (9216 candidate tiles), no history graph and a
/// 64-tile screen, so stage-1 scoring dominates every query.
ModelSpec ScreenSpec() {
  ModelSpec spec = WireSpec();
  spec.options.use_quadtree = false;
  spec.options.grid_cells_per_side = 96;
  spec.options.top_k_tiles = 64;
  spec.options.use_graph = false;
  spec.train_samples = 16;
  return spec;
}

PhaseResult Merged(const std::vector<PhaseResult>& parts) {
  PhaseResult all;
  for (const PhaseResult& part : parts) all.Merge(part);
  return all;
}

Traffic TrafficOf(const std::string& endpoint, const std::vector<Job>& pool,
                  size_t count, uint64_t seed) {
  Traffic traffic;
  traffic.endpoint = endpoint;
  traffic.pool = &pool;
  traffic.order = DeckOrder(pool.size(), std::max<size_t>(count, 1), seed);
  return traffic;
}

/// `count` unconstrained jobs spread evenly over the pool, so the ladder's
/// requests cost what the workload's requests cost on average.
std::vector<Job> Unconstrained(const std::vector<Job>& pool, size_t count) {
  std::vector<const Job*> candidates;
  for (const Job& job : pool) {
    if (!job.request.constraints.Active()) candidates.push_back(&job);
  }
  std::vector<Job> items;
  const size_t stride = std::max<size_t>(1, candidates.size() / std::max<size_t>(1, count));
  for (size_t i = 0; i < candidates.size() && items.size() < count; i += stride) {
    items.push_back(*candidates[i]);
  }
  return items;
}

bool SetupError(const std::string& what) {
  std::fprintf(stderr, "tspnbench: set-up failed: %s\n", what.c_str());
  return false;
}

/// Builds the request pools and their references from checkpoint A. The
/// reference model is the benchmark's own and is gone before the workload
/// loads its model, so peak_rss_mb counts the workload's memory alone.
bool MakePools(const ModelSpec& spec, const Trained& trained,
               size_t pool_size, double constrained_share,
               std::vector<Job>& pool, std::vector<Job>& plans) {
  const std::unique_ptr<NextPoiModel> reference =
      LoadModel(spec, trained, trained.ckpt_a);
  if (reference == nullptr) return false;
  pool = RecommendPool(*trained.dataset, pool_size, constrained_share);
  plans = ItineraryPool(*trained.dataset, kItineraryPool);
  SetReferences(pool, *reference, trained.dataset);
  SetReferences(plans, *reference, trained.dataset);
  return true;
}

/// Every workload runs its phases in this many rounds, interleaved, so
/// each metric samples the whole run rather than one stretch of it.
///
/// throughput_qps is the median over every burst. The latency figures are
/// traced-run metrics only: on a shared host the latency of single
/// requests swings with the host, not the program. On wire, half-second
/// windows of one run read 2.1 to 5.6 ms at p50 and whole runs moved by
/// up to 1.8x, while the saturated throughput of the same runs spread by
/// 4-7%.
constexpr int kRounds = 5;

/// Per-round figures of the phases the metrics come from.
struct Rounds {
  PhaseResult latency;  ///< every round's latency segment, merged
  PhaseResult plans;    ///< every round's itinerary segment, merged
  std::vector<double> p50_ms;  ///< per round, printed only
  std::vector<double> p99_ms;  ///< per round, printed only
  std::vector<double> plan_p50_ms;  ///< per round, printed only
  std::vector<double> throughput;  ///< requests/s, per burst

  void AddLatency(const PhaseResult& segment) {
    p50_ms.push_back(Percentile(segment.latency_ms, 0.50));
    p99_ms.push_back(Percentile(segment.latency_ms, 0.99));
    latency.Merge(segment);
  }

  /// The p99 over every round's samples; it needs 10 samples beyond it.
  double PooledP99(Report& report) const {
    if (SamplesBeyond(latency.latency_ms.size(), 0.99) < 10) {
      report.Fail("the latency segments hold " +
                  std::to_string(latency.latency_ms.size()) +
                  " samples, fewer than 10 beyond their p99; raise --seconds");
    }
    return Percentile(latency.latency_ms, 0.99);
  }

  void AddPlans(const PhaseResult& segment) {
    plan_p50_ms.push_back(Percentile(segment.latency_ms, 0.50));
    plans.Merge(segment);
  }

  /// One line per round, so a slow stretch of the run shows.
  void Print() const {
    const size_t bursts = throughput.size() / std::max<size_t>(1, p50_ms.size());
    for (size_t r = 0; r < p50_ms.size(); ++r) {
      std::printf("round %zu  p50 %.3f ms  p99 %.3f ms  plan p50 %.3f ms  qps", r,
                  p50_ms[r], p99_ms[r], r < plan_p50_ms.size() ? plan_p50_ms[r] : 0.0);
      for (size_t b = r * bursts; b < (r + 1) * bursts && b < throughput.size(); ++b) {
        std::printf(" %.1f", throughput[b]);
      }
      std::printf("\n");
    }
  }
};

/// Each round's throughput phase runs as this many bursts, each starting
/// from an empty pipeline: a batching pattern one burst settles into then
/// decides one of kRounds * kBursts figures, not the whole run.
constexpr int kBursts = 3;

/// Runs a round's closed-loop phase as kBursts bursts of `seconds` each
/// (streams from `streams_for(salt)`), adding each burst's throughput.
template <typename StreamsFor>
void ClosedBursts(StreamsFor streams_for, uint64_t salt, double seconds,
                  bool trace, Rounds& rounds, PhaseResult& all) {
  for (int b = 0; b < kBursts; ++b) {
    const PhaseResult burst = Merged(RunClosedLoop(
        streams_for(salt + 31 * static_cast<uint64_t>(b + 1)), seconds, trace));
    rounds.throughput.push_back(BurstRate(burst.at_s, burst.latency_ms, burst.ok));
    all.Merge(burst);
  }
}

/// The end-to-end metrics every workload reports.
void AddEndToEnd(Report& report, const std::vector<double>& setup_s,
                 const Rounds& rounds) {
  report.Add("setup_s", Percentile(setup_s, 0.5), "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("throughput_qps", Percentile(rounds.throughput, 0.5), "1/s");
}

/// Everything a traced run reports, gathered by each workload.
struct Layers {
  LadderResult ladder;
  int entry_rung = kRecommend;  ///< where the workload's latency traffic enters
  double workload_p50_ms = 0.0;
  double workload_p99_ms = 0.0;
  double workload_plan_p50_ms = 0.0;
  double untraced_p50_ms = 0.0;
  GemmProbe gemm;
  std::vector<double> qrp_us;
  BatchProbe batch32;
  PlanProbe plans;
  std::vector<double> swap_ms;
  EngineCounts engine;
  tspn::serve::FrameServerStats server;
  tspn::serve::cluster::ClusterStats cluster;
  PhaseResult gen;  ///< every load phase of the traced run, merged
};

void AddLayerMetrics(Report& report, const Layers& l) {
  const std::vector<std::vector<double>> self = PairedSelfTimes(l.ladder.rows);
  std::vector<double> rung(kNumRungs);  // p50 of each rung's own time
  double self_sum = 0.0;
  for (int r = 0; r < kNumRungs; ++r) {
    std::vector<double> column;
    for (const std::vector<double>& row : l.ladder.rows) column.push_back(row[r]);
    rung[static_cast<size_t>(r)] = Percentile(column, 0.5);
    const std::vector<double> layer =
        self.empty() ? std::vector<double>{} : self[static_cast<size_t>(r)];
    const std::string name = SelfTimeName(r);
    report.AddSummary(name, Summarize(layer), "us");
    report.Add(name + ".mean", Mean(layer), "us");
    self_sum += Mean(layer);
    if (r == kBatch1) report.AddSummary("core.tspn_ra.batch1_us", Summarize(column), "us");
    if (r == kRouter) report.Add("ladder.top_us.mean", Mean(column), "us");
  }
  report.Add("ladder.self_sum_us.mean", self_sum, "us");
  report.Add("ladder.top_us.p50", rung[kRouter], "us");
  report.Add("ladder.unexplained_us",
             l.workload_p50_ms * 1e3 - rung[static_cast<size_t>(l.entry_rung)],
             "us");
  report.Add("ladder.items", static_cast<double>(l.ladder.rows.size()), "count");
  report.Add("ladder.passes", static_cast<double>(l.ladder.passes), "count");
  report.AddSummary("eval.constraints.extra_us",
                    Summarize(l.ladder.constraint_extra_us), "us");
  report.AddSummary("core.tspn_ra.batch32_us", Summarize(l.batch32.us), "us");

  report.AddSummary("nn.kernels.gemm_screen_us", Summarize(l.gemm.us), "us");
  report.Add("nn.kernels.gemm_screen_flop", l.gemm.flops, "flop");
  report.Add("nn.kernels.gemm_screen_bytes", l.gemm.bytes, "B");
  report.AddSummary("graph.qrp_build_us", Summarize(l.qrp_us), "us");
  report.AddSummary("plan.itinerary.plan_us", Summarize(l.plans.us), "us");
  report.Add("plan.itinerary.expansions", l.plans.expansions, "count");
  report.Add("plan.itinerary.rollouts_scored", l.plans.rollouts, "count");
  report.AddSummary("serve.gateway.swap_ms", Summarize(l.swap_ms), "ms");

  report.Add("serve.inference_engine.mean_batch_size", l.engine.MeanBatch(),
             "count");
  report.Add("serve.inference_engine.batches",
             static_cast<double>(l.engine.batches), "count");
  report.Add("serve.inference_engine.shed", static_cast<double>(l.engine.shed),
             "count");
  report.Add("serve.inference_engine.rejected",
             static_cast<double>(l.engine.rejected), "count");
  report.Add("serve.frame_server.max_in_flight",
             static_cast<double>(l.server.max_in_flight_observed), "count");
  report.Add("serve.frame_server.read_throttles",
             static_cast<double>(l.server.read_throttles), "count");
  int64_t retries = 0;
  int64_t breaker_opens = 0;
  for (const auto& shard : l.cluster.shards) {
    retries += shard.requests_failed;
    breaker_opens += shard.breaker_trips;
  }
  report.Add("serve.cluster.router.failovers",
             static_cast<double>(l.cluster.failovers), "count");
  report.Add("serve.cluster.router.retries", static_cast<double>(retries),
             "count");
  report.Add("serve.cluster.router.breaker_opens",
             static_cast<double>(breaker_opens), "count");

  report.AddSummary("gen.late_ms", Summarize(l.gen.late_ms), "ms");
  report.Add("gen.sent", static_cast<double>(l.gen.sent), "count");
  report.Add("gen.ok", static_cast<double>(l.gen.ok), "count");
  report.Add("gen.failed", static_cast<double>(l.gen.failed), "count");

  std::vector<double> encode_send;
  std::vector<double> wait;
  std::vector<double> decode;
  for (const Span& s : l.gen.spans) {
    encode_send.push_back((s.sent - s.encode) * 1e6);
    wait.push_back((s.reply - s.sent) * 1e6);
    decode.push_back((s.decoded - s.reply) * 1e6);
  }
  report.Add("client.encode_send_us.p50", Summarize(encode_send).p50, "us");
  report.Add("client.wait_us.p50", Summarize(wait).p50, "us");
  report.Add("client.decode_us.p50", Summarize(decode).p50, "us");
  report.Add("trace.spans", static_cast<double>(l.gen.spans.size()), "count");
  report.Add("trace.overhead_ms", l.workload_p50_ms - l.untraced_p50_ms, "ms");
  report.Add("workload.p50_ms", l.workload_p50_ms, "ms");
  report.Add("workload.p99_ms", l.workload_p99_ms, "ms");
  report.Add("workload.plan_p50_ms", l.workload_plan_p50_ms, "ms");
}

void WriteTrace(const Args& args, const std::vector<std::pair<std::string, const PhaseResult*>>& phases) {
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  bool ok = true;
  for (size_t i = 0; i < phases.size(); ++i) {
    ok = ok && WriteSpans(path, phases[i].first, phases[i].second->spans, i > 0);
  }
  std::printf("trace spans %s %s\n", ok ? "written to" : "NOT written to",
              path.c_str());
}

const tspn::core::TspnRa* AsTspn(const NextPoiModel& model) {
  return dynamic_cast<const tspn::core::TspnRa*>(&model);
}

/// The traced run's layer ladder and single-layer probes on `model`, the
/// in-process twin of the model `gateway` serves at `endpoint`.
void MeasureLayers(
    const Args& args, Report& report, const NextPoiModel& model,
    const std::shared_ptr<const tspn::data::CityDataset>& dataset,
    tspn::serve::Gateway& gateway, const std::string& endpoint,
    const SocketAddress& shard, const SocketAddress& router, const std::vector<Job>& pool,
    const std::vector<Job>& plans, Layers& layers) {
  const tspn::core::TspnRa& tspn = *AsTspn(model);
  tspn::serve::InferenceEngine engine(model);
  LadderTargets targets;
  targets.model = &tspn;
  targets.engine = &engine;
  targets.gateway = &gateway;
  targets.endpoint = endpoint;
  targets.shard = shard;
  targets.router = router;
  const std::vector<Job> items = Unconstrained(pool, kLadderItems);
  layers.ladder = RunLadder(targets, *dataset, items, kLadderShare * args.seconds);

  const double probe_s = kProbeShare * args.seconds;
  layers.gemm = ProbeGemm(tspn.config().dm, tspn.NumCandidateTiles(), probe_s);
  layers.qrp_us = ProbeQrpBuild(*dataset, items, tspn.config().max_history_checkins,
                                probe_s);
  layers.batch32 = ProbeBatches(
      model, items, DeckOrder(items.size(), items.size(), args.seed), 32, probe_s);
  layers.plans = ProbePlans(model, dataset, plans,
                            DeckOrder(plans.size(), plans.size(), args.seed),
                            2 * probe_s);
  report.Count("ladder", layers.ladder.attempted, layers.ladder.failed,
               layers.ladder.mismatched);
  report.Count("batch32 probe", layers.batch32.requests, layers.batch32.failed,
               layers.batch32.failed);
  report.Count("plan probe", static_cast<int64_t>(layers.plans.us.size()),
               layers.plans.failed, layers.plans.failed);
}

/// A router front over the one gateway server of wire and screen, so their
/// ladders have a router rung too.
std::unique_ptr<RouterFront> OneShardRouter(const GatewayServer& stack,
                                            const WorkDir& dir) {
  return std::make_unique<RouterFront>(
      std::vector<tspn::serve::cluster::ShardConfig>{{"shard0", stack.address()}},
      dir.Path("front.sock"));
}

/// Swaps the endpoint back and forth between checkpoints B and A, ending on
/// B; swap failures count as failed operations.
void LadderSwaps(Report& report, tspn::serve::Gateway& gateway,
                 const std::string& endpoint, const Trained& trained,
                 Layers& layers) {
  int64_t failed = 0;
  for (int i = 0; i < kLadderSwaps; ++i) {
    const double ms = SwapAndWait(gateway, endpoint,
                                  i % 2 == 0 ? trained.ckpt_b : trained.ckpt_a);
    if (ms < 0.0) {
      ++failed;
    } else {
      layers.swap_ms.push_back(ms);
    }
  }
  report.Count("swaps", kLadderSwaps, failed, 0);
}

}  // namespace

// --- wire --------------------------------------------------------------------
//
// NYC-sim behind FrameServer -> Gateway -> InferenceEngine -> TSPN-RA on a
// unix socket. Each round runs: (a) open loop at 200 req/s over 2
// connections, 1 in 5 requests constrained: per-hop costs dominate; (b)
// closed loop, 2 connections x 16 pipelined: coalescing and batched GEMMs
// dominate; (c) serial v4 itinerary frames on one connection.

bool RunWire(const Args& args, Report& report) {
  constexpr double kRateHz = 200.0;
  constexpr int kConnections = 2;
  constexpr int kDepth = 16;
  // Each connection sends whole passes over the pool in a round's open-loop
  // segment (one at --seconds 45), so every round's latency figures come
  // from the same requests. The p99 lies among the costliest few requests;
  // a pool this size puts several of them beyond it.
  constexpr size_t kPoolSize = 540;
  const double passes = std::max(
      1.0, std::round(0.6 * args.seconds / kRounds * kRateHz / kConnections /
                      static_cast<double>(kPoolSize)));
  const double open_s = passes * kPoolSize * kConnections / kRateHz;
  const double closed_s = 0.25 * args.seconds / kRounds;
  const double plan_s = 0.15 * args.seconds / kRounds;
  const std::string endpoint = "nyc";
  const ModelSpec spec = WireSpec();

  WorkDir dir(args.work_dir);
  if (!dir.ok()) return SetupError("cannot create " + args.work_dir);
  std::vector<double> setup_s;
  Trained trained;
  std::vector<Job> pool;
  std::vector<Job> plans;
  std::unique_ptr<GatewayServer> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    trained = Trained{};  // one dataset at a time
    Stopwatch watch;
    trained = TrainCheckpoints(spec, dir, args.trace);
    const double train_s = watch.ElapsedSeconds();
    // References are the benchmark's own work and are not timed.
    if (k == 0 && !MakePools(spec, trained, kPoolSize, 0.2, pool, plans)) {
      return SetupError("checkpoint A does not load");
    }
    watch.Restart();
    stack = std::make_unique<GatewayServer>(
        DeployConfigFor(spec, trained, trained.ckpt_a), endpoint,
        dir.Path("wire.sock"));
    if (!stack->ok()) return SetupError(stack->error());
    PhaseResult warm = WarmUp(stack->address(), endpoint, pool);
    warm.Merge(WarmUp(stack->address(), endpoint, plans));
    setup_s.push_back(train_s + watch.ElapsedSeconds());
    report.Phase("warmup", warm);
  }

  auto open_streams = [&](double seconds, uint64_t salt) {
    std::vector<OpenStream> streams(kConnections);
    const double per_connection = kRateHz / kConnections;
    for (int i = 0; i < kConnections; ++i) {
      streams[i].address = stack->address();
      streams[i].traffic = TrafficOf(
          endpoint, pool, static_cast<size_t>(seconds * per_connection) + 1,
          salt + static_cast<uint64_t>(i));
      streams[i].rate_hz = per_connection;
      streams[i].offset_s = i / kRateHz;
    }
    return streams;
  };

  Layers layers;
  std::unique_ptr<RouterFront> router;
  if (args.trace) {
    router = OneShardRouter(*stack, dir);
    if (!router->ok()) return SetupError("router front did not start");
    const std::unique_ptr<NextPoiModel> twin =
        LoadModel(spec, trained, trained.ckpt_a);
    if (twin == nullptr) return SetupError("checkpoint A does not load");
    MeasureLayers(
        args, report, *twin, trained.dataset, stack->gateway(), endpoint,
        stack->address(), router->address(), pool, plans, layers);
  }

  Rounds rounds;
  PhaseResult untraced;
  PhaseResult closed_all;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t salt = args.seed * 7919 + static_cast<uint64_t>(r) * 104729;
    if (args.trace) {  // the same segment untraced, for the tracing overhead
      untraced.Merge(Merged(RunOpenLoop(open_streams(kUntracedShare * open_s, salt + 17),
                                        kUntracedShare * open_s, false)));
    }
    rounds.AddLatency(
        Merged(RunOpenLoop(open_streams(open_s, salt), open_s, args.trace)));

    const EngineCounts before = ReadEngineCounts(stack->gateway(), endpoint);
    auto closed_streams = [&](uint64_t stream_salt) {
      std::vector<ClosedStream> streams(kConnections);
      for (int i = 0; i < kConnections; ++i) {
        streams[i].address = stack->address();
        streams[i].traffic = TrafficOf(endpoint, pool, pool.size(),
                                       stream_salt + static_cast<uint64_t>(i));
        streams[i].depth = kDepth;
      }
      return streams;
    };
    ClosedBursts(closed_streams, salt, closed_s / kBursts, args.trace, rounds,
                 closed_all);
    layers.engine = layers.engine +
                    (ReadEngineCounts(stack->gateway(), endpoint) - before);

    ClosedStream plan_stream;
    plan_stream.address = stack->address();
    plan_stream.traffic = TrafficOf(endpoint, plans, plans.size(), salt + 47);
    plan_stream.round_to = static_cast<int64_t>(plans.size());  // whole passes
    rounds.AddPlans(Merged(RunClosedLoop({plan_stream}, plan_s, args.trace)));
  }
  if (args.trace) report.Phase("open-untraced", untraced);
  report.Phase("open", rounds.latency);
  report.Phase("closed", closed_all);
  report.Phase("itinerary", rounds.plans);

  rounds.Print();
  if (!args.trace) {
    AddEndToEnd(report, setup_s, rounds);
    return true;
  }
  layers.server = stack->server().GetStats();
  layers.cluster = router->router().Snapshot();
  LadderSwaps(report, stack->gateway(), endpoint, trained, layers);
  layers.entry_rung = kFrameServer;
  layers.workload_p50_ms = Percentile(rounds.latency.latency_ms, 0.5);
  layers.workload_p99_ms = rounds.PooledP99(report);
  layers.workload_plan_p50_ms = Percentile(rounds.plans.latency_ms, 0.5);
  layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
  layers.gen = Merged({rounds.latency, closed_all, rounds.plans});
  AddLayerMetrics(report, layers);
  WriteTrace(args, {{"open", &rounds.latency},
                    {"closed", &closed_all},
                    {"itinerary", &rounds.plans}});
  return true;
}

// --- screen ------------------------------------------------------------------
//
// In-process ScreenStress: no serving layers, the stage-1 screen and
// nn/kernels do almost all the work. Each round runs serial Recommend
// (latency), RecommendBatch in chunks of 32 (throughput) and in-process
// itinerary planning.

namespace {

/// Serial in-process Recommend over `order`, each reply checked.
PhaseResult SerialRecommend(const NextPoiModel& model, const std::vector<Job>& pool,
                            const std::vector<int32_t>& order, double seconds,
                            bool trace) {
  using Clock = std::chrono::steady_clock;
  PhaseResult r;
  const Clock::time_point t0 = Clock::now();
  auto since = [&] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  for (size_t i = 0; since() < seconds; ++i) {
    const Job& job = pool[static_cast<size_t>(order[i % order.size()])];
    const double start = since();
    const tspn::eval::RecommendResponse out = model.Recommend(job.request);
    const double done = since();
    ++r.sent;
    const bool ok = SameResponse(out, job.ref);
    if (ok) {
      ++r.ok;
      r.latency_ms.push_back((done - start) * 1e3);
      r.at_s.push_back(start);
    } else {
      ++r.failed;
      ++r.mismatched;
    }
    if (trace) {
      r.spans.push_back({static_cast<int64_t>(i), 0, start, start, start, done,
                         done, ok ? Outcome::kOk : Outcome::kMismatch});
    }
  }
  return r;
}

/// A probe's calls as a phase: one latency per call.
template <typename Probe>
PhaseResult AsPhase(const Probe& probe, int64_t requests) {
  PhaseResult r;
  r.sent = requests;
  r.failed = r.mismatched = probe.failed;
  r.ok = requests - probe.failed;
  for (double us : probe.us) r.latency_ms.push_back(us / 1e3);
  r.at_s = probe.start_s;
  return r;
}

}  // namespace

bool RunScreen(const Args& args, Report& report) {
  constexpr size_t kBatch = 32;
  const double serial_s = 0.45 * args.seconds / kRounds;
  const double batch_s = 0.35 * args.seconds / kRounds;
  const double plan_s = 0.2 * args.seconds / kRounds;
  const std::string endpoint = "screen";
  const ModelSpec spec = ScreenSpec();

  WorkDir dir(args.work_dir);
  if (!dir.ok()) return SetupError("cannot create " + args.work_dir);
  std::vector<double> setup_s;
  Trained trained;
  std::unique_ptr<NextPoiModel> model;
  std::vector<Job> pool;
  std::vector<Job> plans;
  for (int k = 0; k < kSetups; ++k) {
    model.reset();
    trained = Trained{};  // one dataset at a time
    Stopwatch watch;
    trained = TrainCheckpoints(spec, dir, args.trace);
    const double train_s = watch.ElapsedSeconds();
    // Unconstrained: the screen itself is measured, and the constraint cost
    // is the ladder's eval.constraints.extra_us.
    if (k == 0 && !MakePools(spec, trained, 440, 0.0, pool, plans)) {
      return SetupError("checkpoint A does not load");
    }
    watch.Restart();
    model = LoadModel(spec, trained, trained.ckpt_a);
    if (model == nullptr) return SetupError("checkpoint A does not load");
    PhaseResult checked;
    for (const Job& job : pool) {
      ++checked.sent;
      if (SameResponse(model->Recommend(job.request), job.ref)) {
        ++checked.ok;
      } else {
        ++checked.failed;
        ++checked.mismatched;
      }
    }
    setup_s.push_back(train_s + watch.ElapsedSeconds());
    report.Phase("warmup", checked);
  }

  Layers layers;
  std::unique_ptr<GatewayServer> stack;
  std::unique_ptr<RouterFront> router;
  if (args.trace) {
    // The screen workload has no serving layers; the traced run stands a
    // default stack up over the same checkpoint so every rung is measured
    // on this model too.
    stack = std::make_unique<GatewayServer>(
        DeployConfigFor(spec, trained, trained.ckpt_a), endpoint,
        dir.Path("screen.sock"));
    if (!stack->ok()) return SetupError(stack->error());
    report.Phase("ladder-warmup", WarmUp(stack->address(), endpoint, pool));
    router = OneShardRouter(*stack, dir);
    if (!router->ok()) return SetupError("router front did not start");
    const EngineCounts before = ReadEngineCounts(stack->gateway(), endpoint);
    MeasureLayers(
        args, report, *model, trained.dataset, stack->gateway(), endpoint,
        stack->address(), router->address(), pool, plans, layers);
    layers.engine = ReadEngineCounts(stack->gateway(), endpoint) - before;
  }

  Rounds rounds;
  PhaseResult untraced;
  PhaseResult batch_all;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t salt = args.seed * 7919 + static_cast<uint64_t>(r) * 104729;
    const std::vector<int32_t> order = DeckOrder(pool.size(), pool.size() * 64, salt);
    if (args.trace) {
      untraced.Merge(SerialRecommend(*model, pool, order, kUntracedShare * serial_s, false));
    }
    rounds.AddLatency(SerialRecommend(*model, pool, order, serial_s, args.trace));
    for (int b = 0; b < kBursts; ++b) {
      const BatchProbe batches =
          ProbeBatches(*model, pool, order, kBatch, batch_s / kBursts);
      const PhaseResult batch = AsPhase(batches, batches.requests);
      rounds.throughput.push_back(static_cast<double>(batch.ok) / batches.seconds);
      batch_all.Merge(batch);
    }
    const PlanProbe planned = ProbePlans(
        *model, trained.dataset, plans,
        DeckOrder(plans.size(), plans.size(), salt + 47), plan_s);
    rounds.AddPlans(AsPhase(planned, static_cast<int64_t>(planned.us.size())));
  }
  if (args.trace) report.Phase("serial-untraced", untraced);
  report.Phase("serial", rounds.latency);
  report.Phase("batch32", batch_all);
  report.Phase("itinerary", rounds.plans);

  rounds.Print();
  if (!args.trace) {
    AddEndToEnd(report, setup_s, rounds);
    return true;
  }
  layers.server = stack->server().GetStats();
  layers.cluster = router->router().Snapshot();
  LadderSwaps(report, stack->gateway(), endpoint, trained, layers);
  layers.entry_rung = kRecommend;
  layers.workload_p50_ms = Percentile(rounds.latency.latency_ms, 0.5);
  layers.workload_p99_ms = rounds.PooledP99(report);
  layers.workload_plan_p50_ms = Percentile(rounds.plans.latency_ms, 0.5);
  layers.untraced_p50_ms = Percentile(untraced.latency_ms, 0.5);
  layers.gen = rounds.latency;
  AddLayerMetrics(report, layers);
  WriteTrace(args, {{"serial", &rounds.latency}});
  return true;
}

}  // namespace tspnbench

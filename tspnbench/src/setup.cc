#include "setup.h"

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "plan/itinerary.h"

extern char** environ;

namespace tspnbench {

using tspn::common::SocketAddress;
using tspn::data::CityDataset;
using tspn::eval::NextPoiModel;
using tspn::eval::RecommendRequest;

std::vector<std::string> TspnEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("TSPN_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  return names;
}

WorkDir::WorkDir(const std::string& base)
    : dir_(base + "/run-" + std::to_string(::getpid())) {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  ok_ = std::filesystem::create_directories(dir_, ec) && !ec;
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Trained TrainCheckpoints(const ModelSpec& spec, const WorkDir& dir,
                         bool with_b) {
  Trained trained;
  trained.dataset = CityDataset::Generate(spec.profile);
  auto model = tspn::eval::ModelRegistry::Global().Create(
      "TSPN-RA", trained.dataset, spec.options);
  tspn::eval::TrainOptions train;
  train.epochs = 1;
  train.max_samples_per_epoch = spec.train_samples;
  train.seed = 11;
  model->Train(train);
  trained.ckpt_a = dir.Path("a.ckpt");
  model->SaveCheckpoint(trained.ckpt_a);
  if (with_b) {
    // B continues from A on other samples, so a swap really changes the
    // weights (and the replies).
    train.seed = 23;
    model->Train(train);
    trained.ckpt_b = dir.Path("b.ckpt");
    model->SaveCheckpoint(trained.ckpt_b);
  }
  return trained;
}

std::unique_ptr<NextPoiModel> LoadModel(const ModelSpec& spec,
                                        const Trained& trained,
                                        const std::string& checkpoint) {
  auto model = tspn::eval::ModelRegistry::Global().Create(
      "TSPN-RA", trained.dataset, spec.options);
  if (model == nullptr || !model->LoadCheckpoint(checkpoint)) return nullptr;
  return model;
}

tspn::serve::DeployConfig DeployConfigFor(const ModelSpec& spec,
                                          const Trained& trained,
                                          const std::string& checkpoint) {
  tspn::serve::DeployConfig config;
  config.model_name = "TSPN-RA";
  config.dataset = trained.dataset;
  config.checkpoint_path = checkpoint;
  config.model_options = spec.options.ToKeyValues();
  return config;
}

GatewayServer::GatewayServer(const tspn::serve::DeployConfig& config,
                             const std::string& endpoint,
                             const std::string& socket_path) {
  tspn::serve::FrameServerOptions options =
      tspn::serve::FrameServerOptions::FromEnv();
  options.unix_path = socket_path;
  server_ = std::make_unique<tspn::serve::FrameServer>(gateway_, options);
  ok_ = gateway_.Deploy(endpoint, config, &error_) && server_->Start(&error_);
}

GatewayServer::~GatewayServer() { server_->Stop(); }

RouterFront::RouterFront(
    const std::vector<tspn::serve::cluster::ShardConfig>& shards,
    const std::string& socket_path) {
  tspn::serve::cluster::RouterOptions options =
      tspn::serve::cluster::RouterOptions::FromEnv();
  options.shards = shards;
  router_ = std::make_unique<tspn::serve::cluster::ShardRouter>(options);
  tspn::serve::FrameServerOptions server_options =
      tspn::serve::FrameServerOptions::FromEnv();
  server_options.unix_path = socket_path;
  server_ =
      std::make_unique<tspn::serve::FrameServer>(*router_, server_options);
  ok_ = router_->Start() && server_->Start();
}

RouterFront::~RouterFront() {
  server_->Stop();
  router_->Stop();
}

RecommendRequest Constrained(const CityDataset& dataset,
                             const RecommendRequest& request) {
  RecommendRequest constrained = request;
  const tspn::data::Trajectory& trajectory = dataset.trajectory(request.sample);
  const int64_t last =
      trajectory.checkins[static_cast<size_t>(request.sample.prefix_len) - 1]
          .poi_id;
  constrained.constraints.geo_center = dataset.poi(last).loc;
  constrained.constraints.geo_radius_km = 3.0;
  constrained.constraints.exclude_visited = true;
  return constrained;
}

std::vector<Job> RecommendPool(const CityDataset& dataset, size_t max_samples,
                               double constrained_share) {
  std::vector<tspn::data::SampleRef> samples =
      dataset.Samples(tspn::data::Split::kTest);
  for (const tspn::data::SampleRef& sample :
       dataset.Samples(tspn::data::Split::kVal)) {
    samples.push_back(sample);
  }
  if (samples.size() > max_samples) samples.resize(max_samples);
  std::vector<Job> pool(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    pool[i].request.sample = samples[i];
    pool[i].request.top_n = 10;
  }
  const size_t constrained = static_cast<size_t>(
      constrained_share * static_cast<double>(pool.size()) + 0.5);
  for (int32_t i : DeckOrder(pool.size(), constrained, /*seed=*/0xC0FFEEULL)) {
    pool[static_cast<size_t>(i)].request =
        Constrained(dataset, pool[static_cast<size_t>(i)].request);
  }
  return pool;
}

std::vector<Job> ItineraryPool(const CityDataset& dataset, size_t count) {
  const std::vector<tspn::data::SampleRef> samples =
      dataset.Samples(tspn::data::Split::kTest);
  std::vector<Job> pool;
  const size_t stride = std::max<size_t>(1, samples.size() / std::max<size_t>(1, count));
  for (size_t i = 0; i < samples.size() && pool.size() < count; i += stride) {
    Job job;
    job.itinerary = true;
    job.plan_request.start = samples[i];
    job.plan_request.k_stops = 5;
    job.plan_request.time_budget_hours = 12.0;
    job.plan_request.dwell_hours = 0.5;
    job.plan_request.mode = tspn::plan::SearchMode::kBeam;
    pool.push_back(job);
  }
  return pool;
}

void SetReferences(std::vector<Job>& pool, const NextPoiModel& model,
                   const std::shared_ptr<const CityDataset>& dataset) {
  const tspn::plan::ItineraryPlanner planner(
      model, dataset, tspn::plan::PlannerOptions::FromEnv());
  for (Job& job : pool) {
    if (job.itinerary) {
      planner.Plan(job.plan_request, &job.plan_ref);
    } else {
      job.ref = model.Recommend(job.request);
    }
  }
}

PhaseResult WarmUp(const SocketAddress& address, const std::string& endpoint,
                   const std::vector<Job>& pool) {
  ClosedStream stream;
  stream.address = address;
  stream.traffic.endpoint = endpoint;
  stream.traffic.pool = &pool;
  for (size_t i = 0; i < pool.size(); ++i) {
    stream.traffic.order.push_back(static_cast<int32_t>(i));
  }
  stream.depth = 8;
  stream.limit = static_cast<int64_t>(pool.size());
  return RunClosedLoop({stream}, /*seconds=*/3600.0, /*trace=*/false).front();
}

EngineCounts ReadEngineCounts(const tspn::serve::Gateway& gateway,
                              const std::string& endpoint) {
  tspn::serve::EndpointStats stats;
  EngineCounts counts;
  if (!gateway.GetEndpointStats(endpoint, &stats)) return counts;
  counts.completed = stats.lifetime_completed;
  counts.batches = stats.lifetime_batches;
  counts.shed = stats.shed_deadline + stats.shed_capacity + stats.expired_in_queue;
  counts.rejected = stats.lifetime_rejected;
  return counts;
}

EngineCounts operator-(const EngineCounts& a, const EngineCounts& b) {
  return {a.completed - b.completed, a.batches - b.batches, a.shed - b.shed,
          a.rejected - b.rejected};
}

EngineCounts operator+(const EngineCounts& a, const EngineCounts& b) {
  return {a.completed + b.completed, a.batches + b.batches, a.shed + b.shed,
          a.rejected + b.rejected};
}

double SwapAndWait(tspn::serve::Gateway& gateway, const std::string& endpoint,
                   const std::string& checkpoint) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  if (!gateway.SwapAsync(endpoint, checkpoint)) return -1.0;
  while (Clock::now() - start < std::chrono::seconds(30)) {
    const tspn::serve::DeployState state =
        gateway.GetDeployStatus(endpoint).state;
    if (state == tspn::serve::DeployState::kLive) {
      return std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
    }
    if (state == tspn::serve::DeployState::kFailed) return -1.0;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return -1.0;
}

}  // namespace tspnbench

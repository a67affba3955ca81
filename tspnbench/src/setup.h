#ifndef TSPNBENCH_SETUP_H_
#define TSPNBENCH_SETUP_H_

// Building blocks the workloads stand up: datasets, trained checkpoints,
// gateway and router servers on unix sockets, request pools and their
// in-process references.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/net.h"
#include "data/city_profile.h"
#include "data/dataset.h"
#include "eval/model_api.h"
#include "eval/model_registry.h"
#include "loadgen.h"
#include "serve/cluster/shard_router.h"
#include "serve/frame_server.h"
#include "serve/gateway.h"

namespace tspnbench {

/// The names of any TSPN_* environment variables: each one can change a
/// serving default, so the benchmark refuses to run while one is set.
std::vector<std::string> TspnEnvironment();

/// A per-process directory inside the checkout for checkpoints and unix
/// sockets; removed with everything in it on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& base);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;

  bool ok() const { return ok_; }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
  bool ok_ = false;
};

/// What a workload serves: a city, a model configuration and how much to
/// train it (performance, not accuracy, is measured, so training is short).
struct ModelSpec {
  tspn::data::CityProfile profile;
  tspn::eval::ModelOptions options;
  int64_t train_samples = 24;
};

/// A generated dataset plus checkpoint A (and B, a further-trained copy,
/// when requested) written under the work directory.
struct Trained {
  std::shared_ptr<tspn::data::CityDataset> dataset;
  std::string ckpt_a;
  std::string ckpt_b;
};

Trained TrainCheckpoints(const ModelSpec& spec, const WorkDir& dir,
                         bool with_b);

/// A registry-built model restored from `checkpoint` — the same
/// construction the gateway uses, so its replies are the references.
std::unique_ptr<tspn::eval::NextPoiModel> LoadModel(
    const ModelSpec& spec, const Trained& trained,
    const std::string& checkpoint);

tspn::serve::DeployConfig DeployConfigFor(const ModelSpec& spec,
                                          const Trained& trained,
                                          const std::string& checkpoint);

/// One gateway endpoint behind a FrameServer on a unix socket, with the
/// program's default options.
class GatewayServer {
 public:
  GatewayServer(const tspn::serve::DeployConfig& config,
                const std::string& endpoint, const std::string& socket_path);
  ~GatewayServer();
  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const tspn::common::SocketAddress& address() const {
    return server_->address();
  }
  tspn::serve::Gateway& gateway() { return gateway_; }
  tspn::serve::FrameServer& server() { return *server_; }

 private:
  tspn::serve::Gateway gateway_;
  std::unique_ptr<tspn::serve::FrameServer> server_;
  bool ok_ = false;
  std::string error_;
};

/// The router tier: a ShardRouter over `shards` behind its own FrameServer.
class RouterFront {
 public:
  RouterFront(const std::vector<tspn::serve::cluster::ShardConfig>& shards,
              const std::string& socket_path);
  ~RouterFront();
  RouterFront(const RouterFront&) = delete;
  RouterFront& operator=(const RouterFront&) = delete;

  bool ok() const { return ok_; }
  const tspn::common::SocketAddress& address() const {
    return server_->address();
  }
  tspn::serve::cluster::ShardRouter& router() { return *router_; }
  tspn::serve::FrameServer& server() { return *server_; }

 private:
  std::unique_ptr<tspn::serve::cluster::ShardRouter> router_;
  std::unique_ptr<tspn::serve::FrameServer> server_;
  bool ok_ = false;
};

/// The constrained variant of a request: a 3 km geo fence around the
/// sample's last observed check-in plus exclude-visited.
tspn::eval::RecommendRequest Constrained(
    const tspn::data::CityDataset& dataset,
    const tspn::eval::RecommendRequest& request);

/// Recommendation jobs over the first `max_samples` test samples, then
/// validation samples when the test split has fewer. A fixed
/// `constrained_share` of them carry constraints: the same set for every
/// run seed, which only orders it.
std::vector<Job> RecommendPool(const tspn::data::CityDataset& dataset,
                               size_t max_samples, double constrained_share);

/// `count` 5-stop beam itinerary jobs (12 h budget, 30 min dwell) starting
/// from test samples spread over the split.
std::vector<Job> ItineraryPool(const tspn::data::CityDataset& dataset,
                               size_t count);

/// Sets every job's reference to `model`'s reply (plans from an in-process
/// ItineraryPlanner with the default options).
void SetReferences(std::vector<Job>& pool,
                   const tspn::eval::NextPoiModel& model,
                   const std::shared_ptr<const tspn::data::CityDataset>& dataset);

/// Sends every job once through `address` (8 in flight) so lazily built
/// model caches are warm before anything is timed. Replies are checked.
PhaseResult WarmUp(const tspn::common::SocketAddress& address,
                   const std::string& endpoint, const std::vector<Job>& pool);

/// Deltas of one endpoint's serving counters across a phase.
struct EngineCounts {
  int64_t completed = 0;
  int64_t batches = 0;
  int64_t shed = 0;
  int64_t rejected = 0;

  double MeanBatch() const {
    return batches > 0 ? static_cast<double>(completed) / batches : 0.0;
  }
};

EngineCounts ReadEngineCounts(const tspn::serve::Gateway& gateway,
                              const std::string& endpoint);
EngineCounts operator-(const EngineCounts& a, const EngineCounts& b);
EngineCounts operator+(const EngineCounts& a, const EngineCounts& b);

/// Starts SwapAsync to `checkpoint` and waits until the endpoint reports
/// kLive again. Returns the elapsed milliseconds, or a negative value when
/// the swap failed or did not finish within 30 s.
double SwapAndWait(tspn::serve::Gateway& gateway, const std::string& endpoint,
                   const std::string& checkpoint);

}  // namespace tspnbench

#endif  // TSPNBENCH_SETUP_H_

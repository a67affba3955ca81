#ifndef TSPNBENCH_LOADGEN_H_
#define TSPNBENCH_LOADGEN_H_

// The load generator: open-loop (scheduled) and closed-loop (pipelined)
// streams of TSWP frames over serve::FrameClient connections, with every
// reply decoded and compared against in-process references.

#include <cstdint>
#include <string>
#include <vector>

#include "common/net.h"
#include "eval/recommend.h"
#include "plan/itinerary.h"

namespace tspnbench {

/// One request the generator can send, with the reply that counts as
/// correct.
struct Job {
  bool itinerary = false;
  tspn::eval::RecommendRequest request;
  tspn::plan::ItineraryRequest plan_request;
  tspn::eval::RecommendResponse ref;
  tspn::plan::ItineraryResponse plan_ref;
};

/// Bitwise equality of replies: ranked ids, score bits, tiles and stage
/// counters — what the serving layers promise to preserve.
bool SameResponse(const tspn::eval::RecommendResponse& a,
                  const tspn::eval::RecommendResponse& b);
bool SameItinerary(const tspn::plan::ItineraryResponse& a,
                   const tspn::plan::ItineraryResponse& b);

enum class Outcome : uint8_t {
  kOk = 0,
  kMismatch,     ///< decoded, but equal to no reference
  kServerError,  ///< an error frame (shed, expired, unknown endpoint, ...)
  kTransport,    ///< no reply, timeout, or an undecodable frame
};

const char* OutcomeName(Outcome outcome);

/// A reply decoded one level, before it is compared.
struct Reply {
  Outcome status = Outcome::kTransport;  ///< kOk when decoded
  tspn::eval::RecommendResponse response;
  tspn::plan::ItineraryResponse plan;
};

Reply DecodeReply(const Job& job, const std::vector<uint8_t>& frame);

/// kOk when the decoded reply equals the job's reference.
Outcome Judge(const Job& job, const Reply& reply);

/// What one stream sends: frames for `endpoint` built from `pool` entries
/// in `order` (cycled). Recommendations go out as v1 frames, itinerary
/// jobs as v4 frames.
struct Traffic {
  std::string endpoint;
  const std::vector<Job>* pool = nullptr;
  std::vector<int32_t> order;
};

std::vector<uint8_t> EncodeJob(const Traffic& traffic, const Job& job);

/// The client-side span of one request, seconds from the phase start:
/// scheduled send, encode start, send done, reply read, reply decoded.
struct Span {
  int64_t id = 0;
  int32_t stream = 0;
  double scheduled = 0.0;
  double encode = 0.0;
  double sent = 0.0;
  double reply = 0.0;
  double decoded = 0.0;
  Outcome outcome = Outcome::kOk;
};

/// Counts and timings of one phase (or one stream of it).
struct PhaseResult {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t mismatched = 0;           ///< subset of failed
  std::vector<double> latency_ms;   ///< successful requests only
  std::vector<double> at_s;         ///< per latency: scheduled send time
  std::vector<double> late_ms;      ///< open loop: per-send lateness
  std::vector<Span> spans;          ///< traced runs only

  void Merge(const PhaseResult& other);
};

/// An open-loop stream: one connection sending at a fixed rate, request i
/// due at offset_s + i / rate_hz from the phase start, whether or not
/// earlier replies have arrived.
struct OpenStream {
  tspn::common::SocketAddress address;
  Traffic traffic;
  double rate_hz = 0.0;
  double offset_s = 0.0;
};

/// A closed-loop stream: one connection keeping `depth` requests in flight,
/// sending the next only when a reply returns.
struct ClosedStream {
  tspn::common::SocketAddress address;
  Traffic traffic;
  int depth = 1;
  int64_t limit = -1;  ///< stop sending after this many; < 0 = no limit
  /// Past `seconds`, keep sending until the count sent is a multiple of
  /// this: with the pool size, every job is sent equally often.
  int64_t round_to = 1;
};

/// Runs the streams concurrently (one thread each) for `seconds`; result i
/// belongs to stream i. Latency is measured from the scheduled send time.
std::vector<PhaseResult> RunOpenLoop(const std::vector<OpenStream>& streams,
                                     double seconds, bool trace);

/// Runs the streams concurrently for `seconds`, then drains. Latency is
/// send to decoded reply.
std::vector<PhaseResult> RunClosedLoop(const std::vector<ClosedStream>& streams,
                                       double seconds, bool trace);

/// Seed-driven request order: `count` pool indices drawn as whole shuffled
/// passes over [0, pool_size), so every seed sends the same multiset of
/// requests (up to the last partial pass) in a different order.
std::vector<int32_t> DeckOrder(size_t pool_size, size_t count, uint64_t seed);

}  // namespace tspnbench

#endif  // TSPNBENCH_LOADGEN_H_

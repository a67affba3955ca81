#include "loadgen.h"

#include <poll.h>
#include <sys/prctl.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "common/rng.h"
#include "serve/codec.h"
#include "serve/frame_client.h"
#include "stats.h"

namespace tspnbench {
namespace {

using Clock = std::chrono::steady_clock;
using tspn::serve::DecodeStatus;
using tspn::serve::FrameType;

/// A reply that has not arrived this long after it was due is a failure.
constexpr int64_t kReplyTimeoutMs = 10000;

/// Threads connect first and start sending at a shared instant this far
/// after the phase is launched.
constexpr auto kStartLead = std::chrono::milliseconds(50);

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }
bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct InFlight {
  int64_t id = 0;
  const Job* job = nullptr;
  double scheduled = 0.0;
  double encode = 0.0;
  double sent = 0.0;
};

/// Reads, decodes and judges the reply to `f`, recording its outcome.
/// Returns false when the connection is unusable.
bool Collect(tspn::serve::FrameClient& client, const InFlight& f,
             Clock::time_point t0, int32_t stream, bool trace,
             PhaseResult& r) {
  std::vector<uint8_t> frame;
  const bool got = client.RecvFrame(&frame);
  const double reply_at = Since(t0);
  Reply reply;
  if (got) reply = DecodeReply(*f.job, frame);
  const double decoded_at = Since(t0);
  const Outcome outcome = got ? Judge(*f.job, reply) : Outcome::kTransport;
  if (outcome == Outcome::kOk) {
    ++r.ok;
    r.latency_ms.push_back(OpenLoopLatency(f.scheduled, decoded_at) * 1e3);
    r.at_s.push_back(f.scheduled);
  } else {
    ++r.failed;
    if (outcome == Outcome::kMismatch) ++r.mismatched;
  }
  if (trace) {
    r.spans.push_back({f.id, stream, f.scheduled, f.encode, f.sent, reply_at,
                       decoded_at, outcome});
  }
  return got;
}

/// Every request still owed a reply (and, open loop, every one not yet
/// sent) fails when the connection dies.
void FailRemaining(std::deque<InFlight>& inflight, int64_t unsent,
                   PhaseResult& r) {
  r.sent += unsent;
  r.failed += unsent + static_cast<int64_t>(inflight.size());
  inflight.clear();
}

const Job& JobAt(const Traffic& traffic, int64_t i) {
  return (*traffic.pool)[traffic.order[static_cast<size_t>(i) %
                                       traffic.order.size()]];
}

PhaseResult OpenLoopStream(const OpenStream& s, Clock::time_point t0,
                           double seconds, bool trace, int32_t stream) {
  PhaseResult r;
  const int64_t n = std::llround(seconds * s.rate_hz);
  // Nanosecond timer slack, so this thread wakes on schedule: the default
  // 50 us slack would show up as generator lateness on every send.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  tspn::serve::FrameClient client;
  client.set_recv_timeout_ms(kReplyTimeoutMs);
  std::deque<InFlight> inflight;
  if (!client.Connect(s.address)) {
    FailRemaining(inflight, n, r);
    return r;
  }
  int64_t next = 0;
  double last_sent = 0.0;
  while (next < n || !inflight.empty()) {
    const double now = Since(t0);
    double wake = last_sent + kReplyTimeoutMs / 1e3;
    if (next < n) {
      const double due = s.offset_s + static_cast<double>(next) / s.rate_hz;
      if (now >= due) {
        const Job& job = JobAt(s.traffic, next);
        InFlight f{next, &job, due, Since(t0), 0.0};
        const bool sent = client.SendFrame(EncodeJob(s.traffic, job));
        f.sent = last_sent = Since(t0);
        r.late_ms.push_back(Lateness(due, f.encode) * 1e3);
        ++r.sent;
        ++next;
        if (!sent) {
          inflight.push_back(f);
          FailRemaining(inflight, n - next, r);
          break;
        }
        inflight.push_back(f);
        continue;
      }
      wake = due;
    }
    const double wait = std::max(0.0, wake - now);
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    pollfd pfd{client.fd(), POLLIN, 0};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0 && errno == EINTR) continue;
    if (rc == 0) {
      if (next >= n) {  // drain timed out
        FailRemaining(inflight, 0, r);
        break;
      }
      continue;
    }
    if (rc < 0 || inflight.empty()) {  // poll failure or an unrequested frame
      FailRemaining(inflight, n - next, r);
      break;
    }
    const InFlight f = inflight.front();
    inflight.pop_front();
    if (!Collect(client, f, t0, stream, trace, r)) {
      FailRemaining(inflight, n - next, r);
      break;
    }
  }
  return r;
}

PhaseResult ClosedLoopStream(const ClosedStream& s, Clock::time_point t0,
                             double seconds, bool trace, int32_t stream) {
  PhaseResult r;
  tspn::serve::FrameClient client;
  client.set_recv_timeout_ms(kReplyTimeoutMs);
  std::deque<InFlight> inflight;
  if (!client.Connect(s.address)) {
    FailRemaining(inflight, s.depth, r);
    return r;
  }
  std::this_thread::sleep_until(t0);
  int64_t next = 0;
  auto send_one = [&] {
    const Job& job = JobAt(s.traffic, next);
    const double start = Since(t0);
    InFlight f{next++, &job, start, start, 0.0};
    const bool sent = client.SendFrame(EncodeJob(s.traffic, job));
    f.sent = Since(t0);
    ++r.sent;
    inflight.push_back(f);
    return sent;
  };
  auto more = [&] { return s.limit < 0 || next < s.limit; };
  bool healthy = true;
  for (int i = 0; i < s.depth && healthy && more(); ++i) healthy = send_one();
  while (healthy && !inflight.empty()) {
    const InFlight f = inflight.front();
    inflight.pop_front();
    healthy = Collect(client, f, t0, stream, trace, r);
    if (healthy && more() && (Since(t0) < seconds || next % s.round_to != 0)) {
      healthy = send_one();
    }
  }
  FailRemaining(inflight, 0, r);
  return r;
}

template <typename Stream, typename Fn>
std::vector<PhaseResult> RunStreams(const std::vector<Stream>& streams,
                                    double seconds, bool trace, Fn run) {
  std::vector<PhaseResult> results(streams.size());
  const Clock::time_point t0 = Clock::now() + kStartLead;
  std::vector<std::thread> threads;
  threads.reserve(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = run(streams[i], t0, seconds, trace, static_cast<int32_t>(i));
    });
  }
  for (std::thread& t : threads) t.join();
  return results;
}

}  // namespace

bool SameResponse(const tspn::eval::RecommendResponse& a,
                  const tspn::eval::RecommendResponse& b) {
  if (a.items.size() != b.items.size() || a.stages_used != b.stages_used ||
      a.tiles_screened != b.tiles_screened) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].poi_id != b.items[i].poi_id ||
        a.items[i].tile_index != b.items[i].tile_index ||
        !SameBits(a.items[i].score, b.items[i].score)) {
      return false;
    }
  }
  return true;
}

bool SameItinerary(const tspn::plan::ItineraryResponse& a,
                   const tspn::plan::ItineraryResponse& b) {
  if (a.plans.size() != b.plans.size() || a.expansions != b.expansions ||
      a.rollouts_scored != b.rollouts_scored) {
    return false;
  }
  for (size_t p = 0; p < a.plans.size(); ++p) {
    const tspn::plan::ItineraryPlan& x = a.plans[p];
    const tspn::plan::ItineraryPlan& y = b.plans[p];
    if (x.stops.size() != y.stops.size() ||
        !SameBits(x.total_score, y.total_score) ||
        !SameBits(x.total_hours, y.total_hours) ||
        !SameBits(x.total_km, y.total_km)) {
      return false;
    }
    for (size_t s = 0; s < x.stops.size(); ++s) {
      const tspn::plan::ItineraryStop& u = x.stops[s];
      const tspn::plan::ItineraryStop& v = y.stops[s];
      if (u.poi_id != v.poi_id || !SameBits(u.model_score, v.model_score) ||
          !SameBits(u.arrive_hours, v.arrive_hours) ||
          !SameBits(u.depart_hours, v.depart_hours) ||
          !SameBits(u.travel_km, v.travel_km)) {
        return false;
      }
    }
  }
  return true;
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk: return "ok";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kServerError: return "server_error";
    case Outcome::kTransport: return "transport";
  }
  return "unknown";
}

Reply DecodeReply(const Job& job, const std::vector<uint8_t>& frame) {
  Reply reply;
  FrameType type;
  if (tspn::serve::PeekFrameType(frame, &type) != DecodeStatus::kOk) {
    return reply;
  }
  if (type == FrameType::kError) {
    reply.status = Outcome::kServerError;
  } else if (job.itinerary) {
    if (type == FrameType::kItineraryResponse &&
        tspn::serve::DecodeItineraryResponse(frame, &reply.plan) ==
            DecodeStatus::kOk) {
      reply.status = Outcome::kOk;
    }
  } else if (type == FrameType::kResponse &&
             tspn::serve::DecodeRecommendResponse(frame, &reply.response) ==
                 DecodeStatus::kOk) {
    reply.status = Outcome::kOk;
  }
  return reply;
}

Outcome Judge(const Job& job, const Reply& reply) {
  if (reply.status != Outcome::kOk) return reply.status;
  const bool same = job.itinerary ? SameItinerary(reply.plan, job.plan_ref)
                                  : SameResponse(reply.response, job.ref);
  return same ? Outcome::kOk : Outcome::kMismatch;
}

std::vector<uint8_t> EncodeJob(const Traffic& traffic, const Job& job) {
  if (job.itinerary) {
    return tspn::serve::EncodeItineraryRequest(traffic.endpoint,
                                               job.plan_request);
  }
  return tspn::serve::EncodeRecommendRequest(traffic.endpoint, job.request);
}

void PhaseResult::Merge(const PhaseResult& other) {
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  mismatched += other.mismatched;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  at_s.insert(at_s.end(), other.at_s.begin(), other.at_s.end());
  late_ms.insert(late_ms.end(), other.late_ms.begin(), other.late_ms.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

std::vector<PhaseResult> RunOpenLoop(const std::vector<OpenStream>& streams,
                                     double seconds, bool trace) {
  return RunStreams(streams, seconds, trace, OpenLoopStream);
}

std::vector<PhaseResult> RunClosedLoop(const std::vector<ClosedStream>& streams,
                                       double seconds, bool trace) {
  return RunStreams(streams, seconds, trace, ClosedLoopStream);
}

std::vector<int32_t> DeckOrder(size_t pool_size, size_t count, uint64_t seed) {
  std::vector<int32_t> order;
  if (pool_size == 0) return order;
  order.reserve(count);
  tspn::common::Rng rng(seed);
  std::vector<int32_t> deck(pool_size);
  while (order.size() < count) {
    for (size_t i = 0; i < pool_size; ++i) deck[i] = static_cast<int32_t>(i);
    for (size_t i = pool_size - 1; i > 0; --i) {
      const size_t j = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(i) + 1));
      std::swap(deck[i], deck[j]);
    }
    for (size_t i = 0; i < pool_size && order.size() < count; ++i) {
      order.push_back(deck[i]);
    }
  }
  return order;
}

}  // namespace tspnbench

#include "report.h"

#include <sched.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "plan/itinerary.h"
#include "serve/cluster/shard_router.h"
#include "serve/frame_server.h"
#include "serve/inference_engine.h"

namespace tspnbench {
namespace {

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::AddSummary(const std::string& prefix, const Summary& summary,
                        const std::string& unit) {
  Add(prefix + ".p50", summary.p50, unit);
  Add(prefix + ".p99", summary.p99, unit);
}

void Report::Phase(const std::string& name, const PhaseResult& r) {
  const Summary latency = Summarize(r.latency_ms);
  const Summary late = Summarize(r.late_ms);
  std::printf("phase %-22s sent %7" PRId64 " ok %7" PRId64 " failed %4" PRId64
              " (mismatch %" PRId64 ")  latency p50 %.3f ms p99 %.3f ms"
              " (n=%" PRId64 ", %zu beyond p99)",
              name.c_str(), r.sent, r.ok, r.failed, r.mismatched,
              latency.p50, latency.p99, latency.n,
              SamplesBeyond(r.latency_ms.size(), 0.99));
  if (!r.late_ms.empty()) {
    std::printf("  gen late p50 %.3f ms p99 %.3f ms", late.p50, late.p99);
  }
  std::printf("\n");
  Count(name, r.sent, r.failed, r.mismatched);
  if (r.sent == 0) Fail("phase " + name + " sent nothing");
}

void Report::Count(const std::string& what, int64_t attempted, int64_t failed,
                   int64_t mismatched) {
  attempted_ += attempted;
  failed_ += failed;
  if (mismatched > 0) {
    Fail(what + ": " + std::to_string(mismatched) +
         " replies differ from the in-process reference");
  }
}

void Report::Fail(const std::string& reason) {
  std::printf("INCORRECT: %s\n", reason.c_str());
  correct_ = false;
}

std::string Report::Json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": "
        << Number(metrics_[i].value) << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void PrintEnvironment() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf("env nproc %d cpu \"%s\"\n", nproc, cpu.c_str());

  const tspn::serve::EngineOptions e = tspn::serve::EngineOptions::FromEnv();
  std::printf("env EngineOptions num_threads=%d max_queue_depth=%" PRId64
              " max_batch=%" PRId64 " coalesce_window_us=%" PRId64
              " default_deadline_ms=%" PRId64 "\n",
              e.num_threads, e.max_queue_depth, e.max_batch,
              e.coalesce_window_us, e.default_deadline_ms);
  const tspn::serve::FrameServerOptions f =
      tspn::serve::FrameServerOptions::FromEnv();
  std::printf("env FrameServerOptions io_threads=%d max_frame_bytes=%" PRId64
              " max_connections=%" PRId64 " max_inflight_per_connection=%" PRId64
              "\n",
              f.io_threads, f.max_frame_bytes, f.max_connections,
              f.max_inflight_per_connection);
  const tspn::serve::cluster::RouterOptions r =
      tspn::serve::cluster::RouterOptions::FromEnv();
  std::printf("env RouterOptions virtual_nodes=%d replication=%d "
              "worker_threads=%d queue_depth=%" PRId64
              " ping_interval_ms=%" PRId64 " call_timeout_ms=%" PRId64
              " pool_size_per_shard=%" PRId64 " rate_limit_qps=%g\n",
              r.virtual_nodes, r.replication, r.worker_threads, r.queue_depth,
              r.ping_interval_ms, r.call_timeout_ms, r.pool_size_per_shard,
              r.rate_limit_qps);
  const tspn::plan::PlannerOptions p = tspn::plan::PlannerOptions::FromEnv();
  std::printf("env PlannerOptions beam_width=%d candidates_per_expansion=%d "
              "max_plans=%d\n",
              p.beam_width, p.candidates_per_expansion, p.max_plans);
}

bool WriteSpans(const std::string& path, const std::string& phase,
                const std::vector<Span>& spans, bool append) {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans) {
    out << "{\"phase\": \"" << phase << "\", \"id\": " << s.id
        << ", \"stream\": " << s.stream
        << ", \"scheduled_s\": " << Number(s.scheduled)
        << ", \"encode_s\": " << Number(s.encode)
        << ", \"sent_s\": " << Number(s.sent)
        << ", \"reply_s\": " << Number(s.reply)
        << ", \"decoded_s\": " << Number(s.decoded) << ", \"outcome\": \""
        << OutcomeName(s.outcome) << "\"}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace tspnbench

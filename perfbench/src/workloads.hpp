// The three workloads.  Each has an untraced form (end-to-end metrics)
// and a traced form (per-layer metrics) that composes every operation
// from the same public calls, in the same order, as the untraced path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/estimator.hpp"
#include "core/features.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "tracer.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  /// Recorded nas-search digests, one per universe chunk.
  std::vector<std::string> nas_digests;
};

/// nas-search candidates per recorded digest, and digests recorded.
constexpr std::size_t kNasChunk = 64;
constexpr std::size_t kNasChunks = 4096;

/// A `gpuperf serve`-equivalent server: default ServeOptions (the full
/// Table I zoo trained on the paper's two devices) behind a TcpServer
/// on an ephemeral loopback port.
class Server {
 public:
  Server();
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  int port() const { return server_.port(); }
  gpuperf::serve::ServeSession& session() { return session_; }

 private:
  gpuperf::serve::ServeSession session_;
  gpuperf::serve::TcpServer server_;
};

/// Exactly the calls ServeSession's constructor makes to train:
/// DatasetBuilder(defaults).build() then PerformanceEstimator("dt", 42)
/// .train().  With a tracer, each call gets a span.
gpuperf::core::PerformanceEstimator train_estimator(Tracer* tracer);

/// Features of every Table I model from a fresh extractor: the
/// reference the correctness checks compare against.
using FeatureMap = std::map<std::string, gpuperf::core::ModelFeatures>;
FeatureMap reference_features();

void serve_hot(Server& server, const RunConfig& config, Report& report);
void serve_hot_traced(Server& server, const RunConfig& config,
                      Report& report, Tracer& tracer);

void nas_search(const gpuperf::core::PerformanceEstimator& estimator,
                const RunConfig& config, Report& report);
void nas_search_traced(const gpuperf::core::PerformanceEstimator& estimator,
                       const RunConfig& config, Report& report,
                       Tracer& tracer);
/// Digest of the nas-search universe's chunk `chunk`.
std::string nas_chunk_digest(
    const gpuperf::core::PerformanceEstimator& estimator, std::size_t chunk);

void dse_sweep(Server& server, const RunConfig& config, Report& report);
void dse_sweep_traced(Server& server, const RunConfig& config,
                      Report& report, Tracer& tracer);

/// Tracing overhead of one traced form: traced minus untraced median
/// op latency, judged against the untraced median's own spread.
void report_overhead(Report& report, const std::string& workload,
                     const std::vector<double>& traced_us,
                     const std::vector<double>& untraced_us);

/// Per-layer span table (calls, mean, median, self time per op) for the
/// human report.
void report_layers(Report& report, const std::string& workload,
                   const Tracer& tracer, std::uint64_t ops);

}  // namespace perfbench

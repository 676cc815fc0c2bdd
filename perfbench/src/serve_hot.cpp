// serve-hot: the production read path.  One client thread keeps one
// request in flight on each of four loopback connections (closed loop:
// every gpuperf caller waits for its reply).  About 90% of requests are
// `predict <model> <device>`, 10% `rank <model>`, Zipf-weighted over the
// Table I zoo x all 10 devices — 310 keys against the 256-entry result
// cache, so most requests hit and the misses go through the feature
// cache, the batcher and one tree walk.  DCA never runs.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "cnn/zoo.hpp"
#include "gpu/device_db.hpp"
#include "json.hpp"
#include "loopback.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpuperf;

namespace {

constexpr int kConnections = 4;
constexpr double kRankShare = 0.10;
constexpr double kZipfExponent = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr double kTailPercentile = 99.9;
/// Responses gathered before the loop pauses to check them.
constexpr std::size_t kCheckBatch = 1000;

/// The request mix and the reference answer of every key.
class Traffic {
 public:
  Traffic(const core::PerformanceEstimator& estimator, std::uint64_t seed)
      : rng_(stream_seed(seed, 3)) {
    const FeatureMap features = reference_features();
    const auto& zoo = cnn::zoo::all_models();
    const auto& devices = gpu::device_database();
    for (std::size_t m = 0; m < zoo.size(); ++m) {
      rank_lines_.push_back("rank " + zoo[m].name);
      expected_rank_.emplace_back();
      for (std::size_t d = 0; d < devices.size(); ++d) {
        const double ipc = estimator.predict(
            core::FeatureExtractor::feature_vector(features.at(zoo[m].name),
                                                   devices[d]));
        keys_.push_back({m, predict_line(zoo[m].name, devices[d].name), ipc});
        expected_rank_.back().emplace_back(devices[d].name, ipc);
      }
    }
    // Which keys are popular is part of the seed.
    Rng shuffle(stream_seed(seed, 4));
    for (std::size_t i = keys_.size(); i > 1; --i)
      std::swap(keys_[i - 1], keys_[static_cast<std::size_t>(
                                   shuffle.next() % i)]);
    double total = 0.0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  struct Op {
    bool rank;
    std::size_t key;
    const std::string* line;
  };

  Op next() {
    const bool rank = rng_.unit() < kRankShare;
    const double u = rng_.unit();
    const std::size_t key = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    const Key& k = keys_[std::min(key, keys_.size() - 1)];
    return {rank, key, rank ? &rank_lines_[k.model] : &k.line};
  }

  /// Check of one response: ok, and every IPC equal to the in-process
  /// prediction for its key.
  bool verify(const Op& op, const std::string& response) const {
    if (response.rfind("{\"ok\":true", 0) != 0) return false;
    const Key& k = keys_[std::min(op.key, keys_.size() - 1)];
    if (!op.rank) return number_after(response, 0, "\"ipc\":") == k.ipc;
    std::size_t found = 0;
    for (const auto& [device, ipc] : expected_rank_[k.model]) {
      const std::size_t at = response.find("\"" + device + "\"");
      if (at == std::string::npos) return false;
      if (number_after(response, at, "\"ipc\":") != ipc) return false;
      ++found;
    }
    return found == expected_rank_[k.model].size();
  }

 private:
  struct Key {
    std::size_t model;
    std::string line;
    double ipc;
  };

  static std::string predict_line(const std::string& model,
                                  const std::string& device) {
    return "predict " + model + " " + device;
  }
  static double number_after(const std::string& s, std::size_t from,
                             const char* tag) {
    const std::size_t at = s.find(tag, from);
    if (at == std::string::npos) return std::nan("");
    return std::strtod(s.c_str() + at + std::strlen(tag), nullptr);
  }

  Rng rng_;
  std::vector<Key> keys_;
  std::vector<double> cdf_;
  std::vector<std::string> rank_lines_;
  std::vector<std::vector<std::pair<std::string, double>>> expected_rank_;
};

struct LoopResult {
  BlockStats stats;
  std::uint64_t sent = 0;
};

/// Closed loop: one request in flight per connection until `seconds`
/// elapse, then drain.  Every answer is checked, but not while a
/// request is in flight: responses are kept until kCheckBatch have
/// gathered, the connections are let go idle, the batch is checked, and
/// the checking time is left out of the measured time.  Neither latency
/// nor throughput includes the checker.
LoopResult closed_loop(int port, Traffic& traffic, double seconds,
                       Report& report) {
  struct Slot {
    std::unique_ptr<Connection> conn;
    Traffic::Op op{};
    Clock::time_point sent;
    bool busy = false;
  };
  std::vector<Slot> slots(kConnections);
  std::vector<pollfd> fds;
  for (Slot& s : slots) {
    s.conn = std::make_unique<Connection>(port);
    fds.push_back({s.conn->fd(), POLLIN, 0});
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  LoopResult out{BlockStats(kTailPercentile, start)};
  const auto send = [&](Slot& s) {
    s.op = traffic.next();
    s.busy = true;
    ++out.sent;
    s.sent = Clock::now();
    s.conn->send(*s.op.line + "\n");
  };
  std::vector<std::pair<Traffic::Op, std::string>> unchecked;
  unchecked.reserve(kCheckBatch + kConnections);
  const auto check_batch = [&] {
    const Clock::time_point t0 = Clock::now();
    for (const auto& [op, response] : unchecked)
      if (!traffic.verify(op, response))
        report.fail("serve-hot: wrong response to '" + *op.line +
                    "': " + response.substr(0, 200));
    unchecked.clear();
    out.stats.exclude(seconds_between(t0, Clock::now()));
  };

  for (Slot& s : slots) send(s);
  std::size_t busy = slots.size();
  std::string line;
  std::vector<Slot*> answered;
  while (busy > 0) {
    if (::poll(fds.data(), fds.size(), 30000) <= 0)
      throw std::runtime_error("serve-hot: no response within 30 s");
    // Stamp every ready response before sending anything.
    answered.clear();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Slot& s = slots[i];
      s.conn->receive();
      while (s.busy && s.conn->pop_line(line)) {
        const Clock::time_point now = Clock::now();
        out.stats.add(us_between(s.sent, now), now);
        s.busy = false;
        --busy;
        unchecked.emplace_back(s.op, std::move(line));
        answered.push_back(&s);
      }
    }
    const bool running = Clock::now() < end;
    if (running && unchecked.size() < kCheckBatch) {
      for (Slot* s : answered) send(*s);
      busy += answered.size();
    } else if (busy == 0) {
      check_batch();
      if (Clock::now() < end) {
        for (Slot& s : slots) send(s);
        busy = slots.size();
      }
    }
  }
  check_batch();
  return out;
}

/// Counter deltas over a phase, from the server's `stats` verb and the
/// session's cache/batcher accessors.
class ServeCounters {
 public:
  explicit ServeCounters(Server& server) : server_(server) { snap(before_); }
  void finish() { snap(after_); }

  double delta(const char* counter) const {
    return after_.counters.at(counter) - before_.counters.at(counter);
  }
  static double ratio(const CacheStats& a, const CacheStats& b) {
    const double hits = static_cast<double>(b.hits - a.hits);
    const double lookups = hits + static_cast<double>(b.misses - a.misses);
    return lookups > 0 ? hits / lookups : 0.0;
  }
  double result_hit_ratio() const {
    return ratio(before_.results, after_.results);
  }
  double feature_hit_ratio() const {
    return ratio(before_.features, after_.features);
  }
  double batch_size_mean() const {
    const double batches =
        static_cast<double>(after_.batcher.batches - before_.batcher.batches);
    return batches > 0 ? static_cast<double>(after_.batcher.batched_requests -
                                             before_.batcher.batched_requests) /
                             batches
                       : 0.0;
  }

 private:
  struct Snapshot {
    std::map<std::string, double> counters;
    CacheStats results, features;
    serve::BatcherStats batcher;
  };
  void snap(Snapshot& s) {
    const json::Value stats = json::parse(
        serve::TcpClient("127.0.0.1", server_.port()).request("stats"));
    const json::Value* counters = stats.get("counters");
    if (counters == nullptr) throw std::runtime_error("stats: no counters");
    for (const char* name : {"epoll_wakeups", "bytes_out"}) {
      const json::Value* v = counters->get(name);
      if (v == nullptr) throw std::runtime_error("stats: no counter");
      s.counters[name] = v->number;
    }
    s.results = server_.session().result_cache_stats();
    s.features = server_.session().feature_cache_stats();
    s.batcher = server_.session().batcher_stats();
  }

  Server& server_;
  Snapshot before_, after_;
};

}  // namespace

void serve_hot(Server& server, const RunConfig& config, Report& report) {
  Traffic traffic(server.session().estimator(), config.seed);
  report.attempted +=
      closed_loop(server.port(), traffic, kWarmupSeconds, report).sent;
  ServeCounters counters(server);
  const LoopResult r = closed_loop(server.port(), traffic, config.seconds,
                                   report);
  counters.finish();
  report.metric("peak_rss_mb", peak_rss_mb());
  report.attempted += r.sent;
  r.stats.report(report);
  // Traffic property: shares of lookups the caches answer.
  report.number("result_hit_share", counters.result_hit_ratio());
  report.number("feature_hit_share", counters.feature_hit_ratio());
}

void serve_hot_traced(Server& server, const RunConfig& config,
                      Report& report, Tracer& tracer) {
  Traffic traffic(server.session().estimator(), config.seed);
  report.attempted +=
      closed_loop(server.port(), traffic, kWarmupSeconds, report).sent;

  // Phase 1, over TCP as in the untraced run: the network-side counters
  // and the client round trip.
  ServeCounters counters(server);
  const LoopResult r =
      closed_loop(server.port(), traffic, config.seconds / 2, report);
  counters.finish();
  report.attempted += r.sent;
  const double requests = static_cast<double>(r.sent);
  report.metric("net.wakeups_per_req",
                counters.delta("epoll_wakeups") / requests);
  report.metric("net.bytes_out_per_req", counters.delta("bytes_out") / requests);
  report.metric("serve.result_hit_ratio", counters.result_hit_ratio());
  report.metric("serve.batch_size_mean", counters.batch_size_mean());

  // Phase 2, in process on the continuation of the same stream:
  // handle_line is handle(parse_request(line)).body, so the traced
  // operation makes those two calls under spans.  Alternate traced and
  // untraced requests; their median difference is the overhead.
  serve::ServeSession& session = server.session();
  std::vector<double> traced_us, untraced_us;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds / 2));
  std::uint64_t request = 0;
  while (Clock::now() < end || request % 2 == 1) {
    const Traffic::Op op = traffic.next();
    std::string body;
    const Clock::time_point t0 = Clock::now();
    if (request % 2 == 0) {
      const Scope root(&tracer, "serve-hot.op", 0, request);
      serve::Request parsed;
      {
        const Scope s(&tracer, "serve.parse", root.id(), request);
        parsed = serve::parse_request(*op.line);
      }
      const Scope s(&tracer, "serve.session", root.id(), request);
      body = session.handle(parsed).body;
    } else {
      body = session.handle_line(*op.line);
    }
    (request % 2 == 0 ? traced_us : untraced_us)
        .push_back(us_between(t0, Clock::now()));
    if (!traffic.verify(op, body))
      report.fail("serve-hot: wrong in-process answer to '" + *op.line + "'");
    ++request;
  }
  report.attempted += request;

  report.metric("serve.parse_us", tracer.mean_us("serve.parse"));
  report.metric("serve.session_us", tracer.mean_us("serve.session"));
  report.metric("net.overhead_us",
                r.stats.p50() - median(untraced_us));
  report_overhead(report, "serve-hot", traced_us, untraced_us);
  const auto& op = tracer.layer("serve-hot.op");
  report.metric("serve-hot.op_self_us",
                op.self_us / static_cast<double>(op.calls));
  report_layers(report, "serve-hot", tracer, traced_us.size());
}

}  // namespace perfbench

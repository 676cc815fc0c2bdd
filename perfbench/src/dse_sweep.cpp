// dse-sweep: the server's `dse` verb, one connection with one sweep in
// flight.  Each sweep is a seeded 8-model draw from the Table I zoo
// over the 7-device Table IV fleet, with latency/power/cost bounds
// drawn around one "anchor" device so a feasible device always exists.
// Features are warm after setup, as for any repeat DSE user: the sweep
// is batch fan-out over the session's feature cache and thread pool,
// not point lookups.
#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "cnn/zoo.hpp"
#include "common/strings.hpp"
#include "dse/constraints.hpp"
#include "gpu/device_db.hpp"
#include "json.hpp"
#include "registry/feature_store.hpp"
#include "serve/client.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpuperf;

namespace {

constexpr std::size_t kModelsPerSweep = 8;
constexpr std::size_t kSweepPool = 256;
constexpr double kWarmupSeconds = 0.5;

struct Sweep {
  dse::SweepRequest request;
  std::string line;
  std::string anchor;
  std::vector<dse::SweepCell> expected;  // model-major, fleet order
};

Sweep make_sweep(Rng& rng, const core::PerformanceEstimator& estimator,
                 const FeatureMap& features) {
  const auto& zoo = cnn::zoo::all_models();
  const auto& fleet = gpu::dse_devices();
  std::vector<std::size_t> order(zoo.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Sweep s;
  for (std::size_t i = 0; i < kModelsPerSweep; ++i) {
    std::swap(order[i], order[i + rng.next() % (order.size() - i)]);
    s.request.models.push_back(zoo[order[i]].name);
  }
  for (const std::string& model : s.request.models) {
    const core::ModelFeatures& f = features.at(model);
    for (const std::string& device : fleet) {
      const gpu::DeviceSpec& spec = gpu::device(device);
      dse::SweepCell cell;
      cell.model = model;
      cell.device = device;
      cell.status = dse::CellStatus::kOk;
      cell.predicted_ipc = estimator.predict(f, spec);
      cell.latency_ms = dse::estimate_latency_ms(f.executed_instructions,
                                                 cell.predicted_ipc, spec);
      cell.power_w = dse::estimate_power_w(cell.predicted_ipc, spec);
      s.expected.push_back(cell);
    }
  }

  // Bounds 2-52% above the anchor's own worst latency, peak power and
  // price: the anchor always passes, others may not.
  s.anchor = fleet[rng.next() % fleet.size()];
  double worst = 0.0, peak = 0.0;
  for (const dse::SweepCell& c : s.expected)
    if (c.device == s.anchor) {
      worst = std::max(worst, c.latency_ms);
      peak = std::max(peak, c.power_w);
    }
  const auto slack = [&rng] { return 1.02 + 0.5 * rng.unit(); };
  dse::Constraints& c = s.request.constraints;
  c.max_latency_ms = worst * slack();
  c.max_power_w = peak * slack();
  const gpu::DeviceSpec& anchor = gpu::device(s.anchor);
  if (anchor.has_cost_usd()) c.max_cost_usd = anchor.cost_usd * slack();
  c.w_power = 0.5 * rng.unit();
  c.w_cost = 0.5 * rng.unit();

  s.line = "dse " + join(s.request.models, ",") +
           " --max-latency-ms=" + exact(c.max_latency_ms) +
           " --max-power-w=" + exact(c.max_power_w) +
           (c.max_cost_usd > 0 ? " --max-cost-usd=" + exact(c.max_cost_usd)
                               : std::string()) +
           " --w-power=" + exact(c.w_power) + " --w-cost=" + exact(c.w_cost) +
           " --cells";
  return s;
}

/// The parts of a `dse --cells` response the check reads.
dse::SweepResult from_json(const std::string& body) {
  const json::Value v = json::parse(body);
  if (!v.is_true("ok")) throw std::runtime_error("not ok: " + body.substr(0, 200));
  dse::SweepResult a;
  const auto text = [](const json::Value& o, const char* key) {
    const json::Value* f = o.get(key);
    return f != nullptr ? f->string : std::string();
  };
  const auto number = [](const json::Value& o, const char* key) {
    const json::Value* f = o.get(key);
    return f != nullptr ? f->number : -1.0;
  };
  const json::Value* cells = v.get("cells");
  const json::Value* recs = v.get("recommendations");
  if (cells == nullptr || recs == nullptr)
    throw std::runtime_error("dse response without cells/recommendations");
  for (const json::Value& c : cells->array) {
    dse::SweepCell cell;
    cell.model = text(c, "model");
    cell.device = text(c, "device");
    cell.status = text(c, "status") == "ok" ? dse::CellStatus::kOk
                                            : dse::CellStatus::kFailed;
    cell.predicted_ipc = number(c, "ipc");
    cell.latency_ms = number(c, "latency_ms");
    cell.power_w = number(c, "power_w");
    a.cells.push_back(cell);
  }
  for (const json::Value& r : recs->array) {
    dse::DeviceSummary s;
    s.device = text(r, "device");
    s.feasible = r.is_true("feasible");
    s.score = number(r, "score");
    a.ranking.push_back(s);
  }
  for (const std::string& name : split(text(v, "pareto"), ','))
    if (!name.empty()) a.pareto.push_back(name);
  return a;
}

/// Every cell equals the in-process reference, the ranking is
/// feasible-first and score-sorted with the anchor feasible, and the
/// Pareto set is a subset of the feasible ranking.  "" when correct.
std::string check(const Sweep& s, const dse::SweepResult& a) {
  if (a.cells.size() != s.expected.size()) return "wrong number of cells";
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const dse::SweepCell& got = a.cells[i];
    const dse::SweepCell& want = s.expected[i];
    if (got.model != want.model || got.device != want.device ||
        got.status != dse::CellStatus::kOk ||
        got.predicted_ipc != want.predicted_ipc ||
        got.latency_ms != want.latency_ms || got.power_w != want.power_w)
      return "cell " + want.model + "@" + want.device + " differs";
  }
  bool infeasible_seen = false, anchor_feasible = false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    const dse::DeviceSummary& r = a.ranking[i];
    if (r.feasible && infeasible_seen) return "ranking not feasible-first";
    if (!r.feasible) infeasible_seen = true;
    if (r.feasible && i > 0 && a.ranking[i - 1].feasible &&
        r.score < a.ranking[i - 1].score)
      return "ranking not score-sorted";
    if (r.device == s.anchor) anchor_feasible = r.feasible;
  }
  if (!anchor_feasible) return "anchor device " + s.anchor + " infeasible";
  for (const std::string& p : a.pareto) {
    const auto it = std::find_if(
        a.ranking.begin(), a.ranking.end(),
        [&](const dse::DeviceSummary& r) { return r.device == p; });
    if (it == a.ranking.end() || !it->feasible)
      return "pareto device " + p + " not in the feasible ranking";
  }
  return "";
}

std::vector<Sweep> make_pool(Server& server, std::uint64_t seed,
                             const FeatureMap& features) {
  Rng rng(stream_seed(seed, 5));
  std::vector<Sweep> pool;
  for (std::size_t i = 0; i < kSweepPool; ++i)
    pool.push_back(make_sweep(rng, server.session().estimator(), features));
  return pool;
}

}  // namespace

void dse_sweep(Server& server, const RunConfig& config, Report& report) {
  const FeatureMap features = reference_features();
  const std::vector<Sweep> pool = make_pool(server, config.seed, features);
  serve::TcpClient client("127.0.0.1", server.port());

  // One sweep in flight, so checking a response delays no other; its
  // time is left out of the measured time.
  const auto run = [&](double seconds, BlockStats* stats) {
    std::uint64_t done = 0;
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (Clock::time_point now = Clock::now(); now < end; ++done) {
      const Sweep& s = pool[done % pool.size()];
      const Clock::time_point t0 = Clock::now();
      const std::string body = client.request(s.line);
      now = Clock::now();
      if (stats != nullptr) stats->add(us_between(t0, now), now);
      std::string error;
      try {
        error = check(s, from_json(body));
      } catch (const std::exception& e) {
        error = e.what();
      }
      if (!error.empty()) report.fail("dse-sweep: " + error);
      if (stats != nullptr) stats->exclude(seconds_between(now, Clock::now()));
    }
    report.attempted += done;
  };

  run(kWarmupSeconds, nullptr);
  const CacheStats before = server.session().feature_cache_stats();
  BlockStats stats(99.0, Clock::now());
  run(config.seconds, &stats);
  report.metric("peak_rss_mb", peak_rss_mb());
  const CacheStats after = server.session().feature_cache_stats();
  stats.report(report);
  // Traffic property: warm features and cells per sweep.
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  report.number("feature_hit_share", lookups > 0 ? hits / lookups : 0.0);
  report.number("cells_per_sweep",
                static_cast<double>(pool.front().expected.size()));
}

void dse_sweep_traced(Server& server, const RunConfig& config,
                      Report& report, Tracer& tracer) {
  const FeatureMap features = reference_features();
  const std::vector<Sweep> pool = make_pool(server, config.seed, features);
  serve::ServeSession& session = server.session();
  const auto estimator = session.estimator_ptr();
  for (const Sweep& s : pool) session.sweep(s.request);  // warm features

  // SweepEngine::run's public calls in its order: build and hash every
  // model to plan the distinct topologies, predict every cell, then
  // summarize, mark the Pareto set and rank.  The features come from
  // the reference map, standing in for the session's warm feature
  // cache, which has no public accessor.
  const auto composed_sweep = [&](const dse::SweepRequest& request,
                                  std::uint64_t id, Tracer* tracer) {
    const Scope op(tracer, "dse-sweep.op", 0, id);
    const std::vector<std::string>& devices = gpu::dse_devices();
    std::vector<const gpu::DeviceSpec*> specs;
    for (const std::string& name : devices) specs.push_back(&gpu::device(name));

    std::unordered_map<std::uint64_t, std::size_t> by_hash;
    std::vector<std::string> representatives;
    std::vector<cnn::Model> models;  // the engine holds them to the end
    std::vector<std::size_t> topology_of(request.models.size());
    for (std::size_t mi = 0; mi < request.models.size(); ++mi) {
      cnn::Model model = [&] {
        const Scope s(tracer, "cnn.build", op.id(), id);
        return cnn::zoo::build(request.models[mi]);
      }();
      std::uint64_t hash = 0;
      {
        const Scope s(tracer, "registry.topology_hash", op.id(), id);
        hash = registry::FeatureStore::topology_hash(model);
      }
      const auto [it, fresh] = by_hash.emplace(hash, representatives.size());
      if (fresh) {
        representatives.push_back(request.models[mi]);
        models.push_back(std::move(model));
      }
      topology_of[mi] = it->second;
    }

    // One span per topology row: a span per cell would cost more than
    // the predict it times (ml.predict_us comes from nas-search).
    std::vector<std::vector<dse::SweepCell>> rows(representatives.size());
    for (std::size_t ti = 0; ti < representatives.size(); ++ti) {
      const Scope s(tracer, "dse.cells", op.id(), id);
      const core::ModelFeatures& f = features.at(representatives[ti]);
      for (std::size_t di = 0; di < devices.size(); ++di) {
        dse::SweepCell cell;
        cell.status = dse::CellStatus::kOk;
        cell.predicted_ipc = estimator->predict(f, *specs[di]);
        cell.latency_ms = dse::estimate_latency_ms(
            f.executed_instructions, cell.predicted_ipc, *specs[di]);
        cell.power_w = dse::estimate_power_w(cell.predicted_ipc, *specs[di]);
        rows[ti].push_back(cell);
      }
    }
    dse::SweepResult result;
    for (std::size_t mi = 0; mi < request.models.size(); ++mi)
      for (std::size_t di = 0; di < devices.size(); ++di) {
        dse::SweepCell cell = rows[topology_of[mi]][di];
        cell.model = request.models[mi];
        cell.device = devices[di];
        result.cells.push_back(std::move(cell));
      }
    std::vector<dse::DeviceCost> costs;
    for (const gpu::DeviceSpec* spec : specs)
      costs.push_back({spec->has_cost_usd() ? spec->cost_usd : -1.0});
    {
      const Scope s(tracer, "dse.rank", op.id(), id);
      result.ranking = dse::summarize_cells(result.cells, devices, costs,
                                            request.constraints);
      dse::mark_pareto(result.ranking);
      dse::rank_summaries(result.ranking, request.constraints);
    }
    for (const dse::DeviceSummary& s : result.ranking)
      if (s.pareto) result.pareto.push_back(s.device);
    {
      const Scope s(tracer, "cnn.free_models", op.id(), id);
      models.clear();
    }
    return result;
  };

  // Rotate the composition traced, the composition untraced, and
  // session.sweep (what the dse verb calls) over one request stream.
  // Traced minus untraced composition is the tracing overhead; the
  // untraced composition minus session.sweep shows how closely the
  // composition reproduces the real path.
  std::vector<double> traced_us, untraced_us, session_us;
  const CacheStats before = session.feature_cache_stats();
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  std::uint64_t n = 0;
  while (Clock::now() < end || n % 3 != 0) {
    // Consecutive operations use different sweeps: repeating one sweep
    // would hand the later variants CPU caches warmed by the first.
    const Sweep& s = pool[n % pool.size()];
    const Clock::time_point t0 = Clock::now();
    const dse::SweepResult result =
        n % 3 == 2 ? session.sweep(s.request)
                   : composed_sweep(s.request, n, n % 3 == 0 ? &tracer : nullptr);
    (n % 3 == 0 ? traced_us : n % 3 == 1 ? untraced_us : session_us)
        .push_back(us_between(t0, Clock::now()));
    const std::string error = check(s, result);
    if (!error.empty()) report.fail("dse-sweep (in process): " + error);
    ++n;
  }
  const CacheStats after = session.feature_cache_stats();
  report.attempted += n;

  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups =
      hits + static_cast<double>(after.misses - before.misses);
  report.metric("cnn.build_us", tracer.mean_us("cnn.build"));
  report.metric("registry.topology_hash_us",
                tracer.mean_us("registry.topology_hash"));
  report.metric("dse.rank_us", tracer.mean_us("dse.rank"));
  report.metric("cnn.free_models_us", tracer.mean_us("cnn.free_models"));
  report.metric("serve.feature_hit_ratio", lookups > 0 ? hits / lookups : 0.0);
  report_overhead(report, "dse-sweep", traced_us, untraced_us);
  report.number("dse-sweep.session_sweep_p50_us", median(session_us));
  report.number("dse-sweep.composition_gap_us",
                median(untraced_us) - median(session_us));
  const auto& op = tracer.layer("dse-sweep.op");
  report.metric("dse-sweep.op_self_us",
                op.self_us / static_cast<double>(op.calls));
  report_layers(report, "dse-sweep", tracer, traced_us.size());
}

}  // namespace perfbench

#include <cmath>

#include "cnn/zoo.hpp"
#include "core/dataset_builder.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpuperf;

Server::Server() : server_(session_) { server_.start(); }

Server::~Server() { server_.stop(); }

core::PerformanceEstimator train_estimator(Tracer* tracer) {
  ml::Dataset dataset;
  {
    const Scope s(tracer, "core.dataset_build", 0, 0);
    dataset = core::DatasetBuilder(core::DatasetOptions{}).build();
  }
  core::PerformanceEstimator estimator("dt", 42);
  {
    const Scope s(tracer, "ml.train", 0, 0);
    estimator.train(dataset);
  }
  return estimator;
}

FeatureMap reference_features() {
  const core::FeatureExtractor extractor;
  FeatureMap out;
  for (const cnn::zoo::ZooEntry& entry : cnn::zoo::all_models())
    out.emplace(entry.name, extractor.compute(entry.build()));
  return out;
}

void report_overhead(Report& report, const std::string& workload,
                     const std::vector<double>& traced_us,
                     const std::vector<double>& untraced_us) {
  const double traced = median(traced_us);
  const double untraced = median(untraced_us);
  const double overhead = traced - untraced;
  const double spread = block_median_spread(untraced_us);
  report.metric(workload + ".trace_overhead_us", overhead);
  report.number(workload + ".traced_op_p50_us", traced);
  report.number(workload + ".untraced_op_p50_us", untraced);
  report.number(workload + ".untraced_p50_spread_us", spread);
  report.note(workload + ".per_layer_trusted",
              std::abs(overhead) <= spread
                  ? "yes: tracing overhead is within the spread of the "
                    "untraced median"
                  : "no: tracing overhead exceeds the spread of the "
                    "untraced median; treat this workload's per-layer "
                    "numbers as indicative only");
}

void report_layers(Report& report, const std::string& workload,
                   const Tracer& tracer, std::uint64_t ops) {
  std::string table = "[";
  for (const auto& [name, layer] : tracer.layers()) {
    if (table.size() > 1) table += ',';
    const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
    table += "{\"layer\":" + json_string(name) +
             ",\"calls\":" + std::to_string(layer.calls) +
             ",\"mean_us\":" +
             exact(layer.total_us / static_cast<double>(layer.calls)) +
             ",\"p50_us\":" + exact(median(layer.durations_us)) +
             ",\"total_us_per_op\":" + exact(layer.total_us * per_op) +
             ",\"self_us_per_op\":" + exact(layer.self_us * per_op) + "}";
  }
  report.info.emplace_back(workload + ".layers", table + "]");
  report.number(workload + ".traced_ops", static_cast<double>(ops));
}

}  // namespace perfbench

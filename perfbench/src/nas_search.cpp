// nas-search: in-process scoring of a seeded stream of never-seen CNN
// candidates, FeatureExtractor::compute + PerformanceEstimator::predict
// per candidate (what examples/nas_search does).  The space is
// MnasNet-like — inverted-residual stages with 3x3/5x5 depthwise
// kernels, channel widths in multiples of 8 and 96-256 px inputs — wide
// enough that a real share of launches misses the process-wide launch
// memo, so lowering and DCA run on every operation.
//
// Every candidate a run scores comes from one fixed universe of
// kUniverse candidates; the seed picks where the run starts in it.  The
// digest of every chunk of kChunk consecutive universe candidates is
// recorded in perfbench/nas_digests.txt, so every timed candidate of
// every run, whatever its seed, is checked against a record.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "cnn/model.hpp"
#include "cnn/static_analyzer.hpp"
#include "gpu/device_db.hpp"
#include "ptx/codegen.hpp"
#include "ptx/counter.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gpuperf;

namespace {

constexpr std::size_t kWarmupCandidates = 200;
constexpr std::size_t kColdRechecks = 96;
constexpr std::uint64_t kWarmupTag = 1;
constexpr std::uint64_t kTimedTag = 2;
/// The universe's own stream; no seed changes it.
constexpr std::uint64_t kUniverseStream = 0x6e61732d756e6976ULL;
/// A run stops early only when it has scored the whole universe: about
/// ten times the ~24k candidates a 20 s run scores on a shared 4-core
/// x86 host.
constexpr std::uint64_t kUniverse = kNasChunk * kNasChunks;

struct Candidate {
  cnn::Model model;
  const gpu::DeviceSpec* device;
};

std::int64_t round8(double channels) {
  return std::max<std::int64_t>(
      8, 8 * static_cast<std::int64_t>(channels / 8.0 + 0.5));
}

/// Candidate `index` of the stream `stream`: built from its own seed,
/// so any candidate can be regenerated without replaying the stream.
Candidate make_candidate(std::uint64_t stream, std::uint64_t index) {
  using cnn::ActivationKind;
  using cnn::Layer;
  using cnn::Padding;
  Rng rng(stream_seed(stream, index + 1));
  const auto& devices = gpu::device_database();
  const gpu::DeviceSpec* device =
      &devices[static_cast<std::size_t>(
          rng.between(0, static_cast<std::int64_t>(devices.size()) - 1))];

  cnn::Model m("nas-" + std::to_string(index));
  const std::int64_t resolution = 96 + 8 * rng.between(0, 20);
  cnn::NodeId x = m.add_input(resolution, resolution, 3);
  std::int64_t channels = round8(8.0 * static_cast<double>(rng.between(2, 5)));
  x = m.conv_bn_act(x, channels, 3, 2, Padding::kSame, ActivationKind::kReLU6);

  // MnasNet-A1 stage skeleton: (base width, stride of the first block).
  struct Stage {
    double width;
    int stride;
  };
  static constexpr Stage kStages[] = {{16, 1}, {24, 2},  {40, 2},
                                      {80, 2}, {112, 1}, {160, 2}};
  for (const Stage& stage : kStages) {
    const double multiplier = 0.5 + 0.125 * static_cast<double>(rng.between(0, 8));
    const std::int64_t out = round8(stage.width * multiplier);
    const int blocks = static_cast<int>(rng.between(1, 3));
    for (int b = 0; b < blocks; ++b) {
      const int stride = b == 0 ? stage.stride : 1;
      const int kernel = rng.between(0, 1) ? 5 : 3;
      const std::int64_t expansion = rng.between(0, 1) ? 6 : 3;
      cnn::NodeId y = m.conv_bn_act(x, channels * expansion, 1, 1,
                                    Padding::kSame, ActivationKind::kReLU6);
      y = m.add(Layer::depthwise_conv2d(kernel, stride, Padding::kSame, false),
                y);
      y = m.add(Layer::batch_norm(), y);
      y = m.add(Layer::activation(ActivationKind::kReLU6), y);
      y = m.conv_bn_act(y, out, 1, 1, Padding::kSame, ActivationKind::kLinear);
      if (stride == 1 && channels == out) y = m.add(Layer::add(), {x, y});
      x = y;
      channels = out;
    }
  }
  x = m.conv_bn_act(x, round8(8.0 * static_cast<double>(rng.between(100, 160))),
                    1, 1, Padding::kSame, ActivationKind::kReLU6);
  x = m.add(Layer::global_avg_pool(), x);
  m.add(Layer::dense(1000, true, ActivationKind::kSoftmax), x);
  return {std::move(m), device};
}

struct Score {
  std::int64_t executed_instructions = 0;
  double ipc = 0.0;
  bool operator==(const Score& o) const {
    return executed_instructions == o.executed_instructions && ipc == o.ipc;
  }
};

/// The untraced operation: exactly what examples/nas_search does.
Score score(const core::FeatureExtractor& extractor,
            const core::PerformanceEstimator& estimator,
            const Candidate& c) {
  const core::ModelFeatures features = extractor.compute(c.model);
  return {features.executed_instructions,
          estimator.predict(
              core::FeatureExtractor::feature_vector(features, *c.device))};
}

/// A run's path through the universe: its candidate i is universe
/// candidate (start + i) mod kUniverse, with start on a chunk boundary.
class Walk {
 public:
  explicit Walk(std::uint64_t seed)
      : start_(kNasChunk * (stream_seed(seed, kTimedTag) % kNasChunks)) {}
  std::uint64_t index(std::size_t i) const { return (start_ + i) % kUniverse; }
  Candidate candidate(std::size_t i) const {
    return make_candidate(kUniverseStream, index(i));
  }

 private:
  std::uint64_t start_;
};

/// Digest of the kNasChunk scores from `first` on.
std::string digest_of(const std::vector<Score>& scores, std::size_t first) {
  Digest d;
  for (std::size_t i = first; i < first + kNasChunk; ++i) {
    d.add(static_cast<std::uint64_t>(scores[i].executed_instructions));
    d.add(scores[i].ipc);
  }
  return d.hex();
}

void warm_up(const core::FeatureExtractor& extractor,
             const core::PerformanceEstimator& estimator,
             std::uint64_t seed) {
  // Fill the launch memo to its steady state before timing starts.
  const std::uint64_t stream = stream_seed(seed, kWarmupTag);
  for (std::size_t i = 0; i < kWarmupCandidates; ++i)
    score(extractor, estimator, make_candidate(stream, i));
}

/// The correctness gate, outside the timed region.  The last chunk is
/// completed untimed, then every chunk the run touched is compared with
/// its recorded digest, and a spread sample is recomputed with the memo
/// cold.  `timed` candidates were scored inside the timed region.
void check(const core::PerformanceEstimator& estimator,
           const RunConfig& config, std::size_t timed,
           std::vector<Score>& scores, Report& report) {
  if (config.nas_digests.size() != kNasChunks)
    throw std::runtime_error("nas-search needs --digests with " +
                             std::to_string(kNasChunks) + " chunk digests");
  const core::FeatureExtractor extractor;
  const Walk walk(config.seed);
  while (scores.size() % kNasChunk != 0)
    scores.push_back(score(extractor, estimator, walk.candidate(scores.size())));

  for (std::size_t first = 0; first < scores.size(); first += kNasChunk) {
    const std::size_t chunk = walk.index(first) / kNasChunk;
    const std::string digest = digest_of(scores, first);
    if (digest != config.nas_digests[chunk])
      report.fail("nas-search chunk " + std::to_string(chunk) + " digest " +
                      digest + " != recorded " + config.nas_digests[chunk],
                  std::min<std::size_t>(kNasChunk, timed - first));
  }
  report.number("digest_chunks_checked",
                static_cast<double>(scores.size() / kNasChunk));

  // Memo-hit answers must equal cold symbolic execution bit for bit.
  ptx::InstructionCounter::reset_memo();
  const std::size_t step = std::max<std::size_t>(1, timed / kColdRechecks);
  for (std::size_t i = 0; i < timed; i += step) {
    const Score cold = score(extractor, estimator, walk.candidate(i));
    if (!(cold == scores[i]))
      report.fail("candidate " + std::to_string(i) +
                  " differs from its cold recompute");
  }
}

struct MemoDelta {
  ptx::InstructionCounter::MemoStats before =
      ptx::InstructionCounter::memo_stats();
  double hit_ratio() const {
    const auto now = ptx::InstructionCounter::memo_stats();
    const double hits = static_cast<double>(now.hits - before.hits);
    const double misses = static_cast<double>(now.misses - before.misses);
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  }
  double lookups() const {
    const auto now = ptx::InstructionCounter::memo_stats();
    return static_cast<double>(now.hits - before.hits + now.misses -
                               before.misses);
  }
  double parallel_tasks() const {
    return static_cast<double>(
        ptx::InstructionCounter::memo_stats().parallel_tasks -
        before.parallel_tasks);
  }
};

}  // namespace

void nas_search(const core::PerformanceEstimator& estimator,
                const RunConfig& config, Report& report) {
  const core::FeatureExtractor extractor;
  warm_up(extractor, estimator, config.seed);

  const Walk walk(config.seed);
  std::vector<Score> scores;
  const MemoDelta memo;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  BlockStats stats(99.0, start);
  for (Clock::time_point now = start; now < end && scores.size() < kUniverse;) {
    const Candidate c = walk.candidate(scores.size());
    const Clock::time_point t0 = Clock::now();
    scores.push_back(score(extractor, estimator, c));
    now = Clock::now();
    stats.add(us_between(t0, now), now);
  }
  const std::size_t timed = scores.size();
  const double ops = static_cast<double>(timed);
  report.attempted += timed;
  if (timed == kUniverse)
    report.note("universe_exhausted",
                "every universe candidate was scored before --seconds "
                "elapsed; the timed phase stopped early");
  stats.report(report);
  // Traffic property: the share of launches the memo answers.
  report.number("memo_hit_share", memo.hit_ratio());
  report.number("launches_per_candidate", memo.lookups() / ops);
  report.number("parallel_tasks_per_candidate", memo.parallel_tasks() / ops);
  report.metric("peak_rss_mb", peak_rss_mb());
  check(estimator, config, timed, scores, report);
}

void nas_search_traced(const core::PerformanceEstimator& estimator,
                       const RunConfig& config, Report& report,
                       Tracer& tracer) {
  const core::FeatureExtractor extractor;
  warm_up(extractor, estimator, config.seed);

  // The same calls compute() + predict make, in the same order, each
  // under its own span.
  const cnn::StaticAnalyzer analyzer;
  const ptx::CodeGenerator codegen;
  const ptx::InstructionCounter counter;
  const auto traced_score = [&](const Candidate& c, std::uint64_t request,
                                double& launches) {
    const Scope op(&tracer, "nas-search.op", 0, request);
    core::ModelFeatures features;
    features.model_name = c.model.name();
    {
      const Scope s(&tracer, "cnn.analyze", op.id(), request);
      const cnn::ModelReport r = analyzer.analyze(c.model);
      features.trainable_params = r.trainable_params;
      features.macs = r.macs;
      features.neurons = r.neurons;
      features.weighted_layers = r.weighted_layers;
    }
    ptx::CompiledModel compiled;
    {
      const Scope s(&tracer, "ptx.compile", op.id(), request);
      compiled = codegen.compile(c.model);
    }
    launches += static_cast<double>(compiled.launches.size());
    {
      const Scope s(&tracer, "ptx.count", op.id(), request);
      features.executed_instructions =
          counter.count(compiled).total_instructions;
    }
    {
      // compute() frees the lowered module when it returns, before the
      // feature vector is assembled; the free is timed as its own layer.
      const Scope s(&tracer, "ptx.free_compiled", op.id(), request);
      compiled = ptx::CompiledModel{};
    }
    std::vector<double> vector;
    {
      const Scope s(&tracer, "core.feature_vector", op.id(), request);
      vector = core::FeatureExtractor::feature_vector(features, *c.device);
    }
    const Scope s(&tracer, "ml.predict", op.id(), request);
    return Score{features.executed_instructions, estimator.predict(vector)};
  };

  // Alternate traced and untraced candidates over one stream, so both
  // see the same memo state; their median difference is the overhead.
  const Walk walk(config.seed);
  std::vector<double> traced_us, untraced_us;
  std::vector<Score> scores;
  double launches = 0.0;
  const MemoDelta memo;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  while ((Clock::now() < end && scores.size() < kUniverse) ||
         scores.size() % 2 == 1) {
    const Candidate c = walk.candidate(scores.size());
    const bool traced = scores.size() % 2 == 0;
    const Clock::time_point t0 = Clock::now();
    scores.push_back(traced ? traced_score(c, scores.size(), launches)
                            : score(extractor, estimator, c));
    (traced ? traced_us : untraced_us).push_back(us_between(t0, Clock::now()));
  }
  const std::size_t timed = scores.size();
  const double ops = static_cast<double>(timed);
  report.attempted += timed;

  report.metric("cnn.analyze_us", tracer.mean_us("cnn.analyze"));
  report.metric("ptx.compile_us", tracer.mean_us("ptx.compile"));
  report.metric("ptx.count_us", tracer.mean_us("ptx.count"));
  report.metric("ptx.free_compiled_us", tracer.mean_us("ptx.free_compiled"));
  report.metric("ptx.memo_hit_ratio", memo.hit_ratio());
  report.metric("ptx.launches_per_op",
                launches / static_cast<double>(traced_us.size()));
  report.metric("ptx.parallel_tasks_per_op", memo.parallel_tasks() / ops);
  report.metric("ml.predict_us", tracer.mean_us("ml.predict"));
  report_overhead(report, "nas-search", traced_us, untraced_us);
  // What the layer spans leave unexplained of a traced operation.
  const auto& op = tracer.layer("nas-search.op");
  report.metric("nas-search.op_self_us",
                op.self_us / static_cast<double>(op.calls));
  report_layers(report, "nas-search", tracer, traced_us.size());
  check(estimator, config, timed, scores, report);
}

std::string nas_chunk_digest(const core::PerformanceEstimator& estimator,
                             std::size_t chunk) {
  const core::FeatureExtractor extractor;
  std::vector<Score> scores;
  for (std::size_t i = 0; i < kNasChunk; ++i)
    scores.push_back(score(extractor, estimator,
                           make_candidate(kUniverseStream,
                                          chunk * kNasChunk + i)));
  return digest_of(scores, 0);
}

}  // namespace perfbench

// Shared pieces of the benchmark binary: seeded input streams, the
// clock, latency summaries, digests and the result record every
// workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's own generator, so the inputs a seed
/// produces never change when the library's RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Mix a stream tag into a seed so distinct streams never overlap.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  return Rng(seed ^ (tag * 0xD1B54A32D192ED03ULL)).next();
}

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double median(std::vector<double> samples);

struct Report;

/// Latency and throughput of a measured phase, robust to noise on a
/// shared host.  Samples are cut, in completion order, into blocks just
/// large enough for the fixed tail percentile to have ten samples beyond
/// it (1000 for p99, 10000 for p99.9).  Each block also records the
/// share of the machine's CPU time the hypervisor stole meanwhile
/// (/proc/stat).  Every metric is the median over the blocks whose steal
/// share is at most the median block's: a block whose CPUs were taken
/// away measures the neighbours, not the program.  That keeps at least
/// half of the blocks, and all of them on a host without steal.  A run
/// too slow to complete one block reports its partial block.  Memory
/// stays bounded by one block.  Time the benchmark spends checking
/// outputs is passed to exclude() and left out of the block's duration,
/// so throughput is the program's and not the checker's.
class BlockStats {
 public:
  BlockStats(double tail_pct, Clock::time_point start);
  void add(double latency_us, Clock::time_point done);
  /// Leave `seconds`, spent since the last add(), out of the duration
  /// of the block the next add() falls in.
  void exclude(double seconds) { pending_excluded_s_ += seconds; }
  /// ops_per_s, op_p50_us and op_tail_us as metrics; the sample counts
  /// as details.
  void report(Report& report) const;
  /// Median of the block medians, over the same blocks as report().
  double p50() const;

 private:
  void close_block(Clock::time_point done);
  /// Indices of the blocks with at most the median steal share.
  std::vector<std::size_t> quiet_blocks() const;

  double tail_pct_;
  std::size_t block_size_;
  std::vector<double> current_;
  Clock::time_point block_start_;
  Clock::time_point last_done_;
  double block_steal_ = 0.0;
  double excluded_s_ = 0.0, pending_excluded_s_ = 0.0;
  std::vector<double> p50s_, tails_, rates_, steal_shares_;
  std::uint64_t samples_ = 0;
};

/// Spread of a sample's median over its time order: the largest
/// minus the smallest median of `blocks` consecutive blocks.  Stands in
/// for run-to-run spread when judging the tracing overhead.
double block_median_spread(const std::vector<double>& samples,
                           std::size_t blocks = 4);

/// FNV-1a over 64-bit words (the nas-search output digest).
class Digest {
 public:
  void add(std::uint64_t word);
  void add(double value);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// CPU time the hypervisor has taken from this machine's CPUs (the
/// `steal` column of /proc/stat), seconds summed over CPUs; 0 where the
/// kernel does not report it.
double steal_seconds();

/// %.17g: round-trips every finite double, as the server prints them.
std::string exact(double value);

/// What one run reports.  Metrics keep insertion order; `info` holds
/// provenance, traffic properties and notes for the human report.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // pre-encoded JSON values

  void metric(const std::string& name, double value) {
    metrics.emplace_back(name, value);
  }
  void note(const std::string& key, const std::string& text);
  void number(const std::string& key, double value);
  /// Record a failed correctness check (counts `ops` failed operations).
  void fail(const std::string& what, std::uint64_t ops = 1);
  std::string json() const;
};

std::string json_string(const std::string& s);

}  // namespace perfbench

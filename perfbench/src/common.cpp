#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {
/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double pct) {
  const double rank = std::ceil(pct / 100.0 * sorted.size());
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(i, sorted.size() - 1)];
}
}  // namespace

BlockStats::BlockStats(double tail_pct, Clock::time_point start)
    : tail_pct_(tail_pct),
      block_size_(static_cast<std::size_t>(
          std::llround(10.0 / (1.0 - tail_pct / 100.0)))),
      block_start_(start),
      block_steal_(steal_seconds()) {
  current_.reserve(block_size_);
}

void BlockStats::add(double latency_us, Clock::time_point done) {
  excluded_s_ += pending_excluded_s_;
  pending_excluded_s_ = 0.0;
  current_.push_back(latency_us);
  ++samples_;
  last_done_ = done;
  if (current_.size() == block_size_) close_block(done);
}

void BlockStats::close_block(Clock::time_point done) {
  std::sort(current_.begin(), current_.end());
  p50s_.push_back(percentile(current_, 50.0));
  tails_.push_back(percentile(current_, tail_pct_));
  rates_.push_back(static_cast<double>(current_.size()) /
                   (seconds_between(block_start_, done) - excluded_s_));
  excluded_s_ = 0.0;
  const double steal = steal_seconds();
  steal_shares_.push_back(
      (steal - block_steal_) /
      (seconds_between(block_start_, done) *
       static_cast<double>(std::thread::hardware_concurrency())));
  block_steal_ = steal;
  block_start_ = done;
  current_.clear();
}

std::vector<std::size_t> BlockStats::quiet_blocks() const {
  const double cutoff = median(steal_shares_);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < steal_shares_.size(); ++i)
    if (steal_shares_[i] <= cutoff) out.push_back(i);
  return out;
}

double BlockStats::p50() const {
  std::vector<double> p50s;
  for (const std::size_t i : quiet_blocks()) p50s.push_back(p50s_[i]);
  return median(p50s);
}

namespace {
std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (const double v : values) out += (out.size() > 1 ? "," : "") + exact(v);
  return out + "]";
}
}  // namespace

void BlockStats::report(Report& report) const {
  BlockStats all = *this;
  if (all.p50s_.empty() && !all.current_.empty())
    all.close_block(last_done_);  // a slow run: one partial block
  if (all.p50s_.empty())
    throw std::runtime_error("measured phase completed no operation");
  std::vector<double> rates, p50s, tails;
  for (const std::size_t i : all.quiet_blocks()) {
    rates.push_back(all.rates_[i]);
    p50s.push_back(all.p50s_[i]);
    tails.push_back(all.tails_[i]);
  }
  report.metric("ops_per_s", median(rates));
  report.metric("op_p50_us", median(p50s));
  report.metric("op_tail_us", median(tails));
  report.number("latency_samples", static_cast<double>(samples_));
  report.number("tail_percentile", tail_pct_);
  report.number("block_size", static_cast<double>(block_size_));
  report.number("blocks", static_cast<double>(all.p50s_.size()));
  report.number("blocks_used", static_cast<double>(p50s.size()));
  report.info.emplace_back("block_ops_per_s", json_array(all.rates_));
  report.info.emplace_back("block_steal_share", json_array(all.steal_shares_));
  if (p50s_.size() < 3)
    report.note("block_warning",
                "fewer than three complete blocks; the medians over blocks "
                "are not robust and the tail may have fewer than ten "
                "samples beyond it");
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

double block_median_spread(const std::vector<double>& samples,
                           std::size_t blocks) {
  if (samples.size() < blocks * 2) return 0.0;
  const std::size_t per = samples.size() / blocks;
  double lo = 0.0, hi = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double m = median(std::vector<double>(
        samples.begin() + static_cast<std::ptrdiff_t>(b * per),
        samples.begin() + static_cast<std::ptrdiff_t>((b + 1) * per)));
    lo = b == 0 ? m : std::min(lo, m);
    hi = b == 0 ? m : std::max(hi, m);
  }
  return hi - lo;
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;  // KiB -> MiB
}

double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n < 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string exact(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Report::note(const std::string& key, const std::string& text) {
  info.emplace_back(key, json_string(text));
}

void Report::number(const std::string& key, double value) {
  info.emplace_back(key, std::isfinite(value) ? exact(value) : "null");
}

void Report::fail(const std::string& what, std::uint64_t ops) {
  failed += ops;
  correct = false;
  std::size_t shown = 0;
  for (const auto& [key, value] : info) shown += key == "failure";
  if (shown < 20) note("failure", what);
}

std::string Report::json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(metrics[i].first) + ":" +
           (std::isfinite(metrics[i].second) ? exact(metrics[i].second)
                                             : "null");
  }
  out += "},\"info\":[";
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (i > 0) out += ',';
    out += "[" + json_string(info[i].first) + "," + info[i].second + "]";
  }
  return out + "]}";
}

}  // namespace perfbench

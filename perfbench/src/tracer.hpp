// Span recorder for the traced run.  Spans are opened and closed by
// the benchmark's own code around calls into the library's public
// functions (no instrumentation inside the program), kept in memory,
// and written out as JSON lines when the run ends.
//
// A layer's self time is its span's duration minus the time its child
// spans cover.  Aggregates are folded in at close, so they cover every
// span even when the stored list hits its cap.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Layer {
    std::uint64_t calls = 0;
    double total_us = 0.0;
    double self_us = 0.0;
    std::vector<double> durations_us;
  };

  /// Open a span; returns its id (the parent of spans opened under it).
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t request);
  /// Close the span and fold it into its layer's aggregates.
  void close(std::uint32_t id);

  /// Layers in first-seen order.
  const std::vector<std::pair<const char*, Layer>>& layers() const {
    return layers_;
  }
  const Layer& layer(const char* name) const;
  /// Mean duration per call of a layer, microseconds (0 if never called).
  double mean_us(const char* name) const;

  /// Write every kept span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t id;
    std::uint32_t parent;
    const char* name;
    std::uint64_t request;
    Clock::time_point start;
    double child_us = 0.0;
  };
  static constexpr std::size_t kMaxKept = 1u << 18;

  Layer& find(const char* name);

  std::vector<Open> stack_;
  std::vector<Span> spans_;
  // Span names are string literals; a short vector keeps the per-span
  // cost (the tracing overhead) low.
  std::vector<std::pair<const char*, Layer>> layers_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  const Clock::time_point epoch_ = Clock::now();
};

/// RAII span: opens on construction, closes on scope exit.  A null
/// tracer records nothing, so one composition serves traced and
/// untraced operations.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint32_t parent,
        std::uint64_t request)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(name, parent, request) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

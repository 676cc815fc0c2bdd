#include "tracer.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           std::uint64_t request) {
  const std::uint32_t id = next_id_++;
  stack_.push_back({id, parent, name, request, Clock::now()});
  return id;
}

void Tracer::close(std::uint32_t id) {
  const Clock::time_point end = Clock::now();
  // Spans nest strictly: the traced compositions are single-threaded.
  if (stack_.empty() || stack_.back().id != id)
    throw std::logic_error("tracer: spans closed out of order");
  const Open span = stack_.back();
  stack_.pop_back();
  const double duration = us_between(span.start, end);
  if (!stack_.empty()) stack_.back().child_us += duration;

  Layer& layer = find(span.name);
  ++layer.calls;
  layer.total_us += duration;
  layer.self_us += duration - span.child_us;
  layer.durations_us.push_back(duration);

  if (spans_.size() < kMaxKept) {
    const auto ns = [this](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
          .count();
    };
    spans_.push_back(
        {span.name, span.id, span.parent, span.request, ns(span.start),
         ns(end)});
  } else {
    ++dropped_;
  }
}

Tracer::Layer& Tracer::find(const char* name) {
  for (auto& [n, layer] : layers_)
    if (n == name || std::strcmp(n, name) == 0) return layer;
  return layers_.emplace_back(name, Layer{}).second;
}

const Tracer::Layer& Tracer::layer(const char* name) const {
  for (const auto& [n, layer] : layers_)
    if (std::strcmp(n, name) == 0) return layer;
  throw std::logic_error(std::string("tracer: no layer ") + name);
}

double Tracer::mean_us(const char* name) const {
  for (const auto& [n, layer] : layers_)
    if (std::strcmp(n, name) == 0 && layer.calls > 0)
      return layer.total_us / static_cast<double>(layer.calls);
  return 0.0;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& s : spans_)
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%u,\"parent\":%u,\"request\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.id, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  if (dropped_ > 0)
    std::fprintf(f, "{\"dropped_spans\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench

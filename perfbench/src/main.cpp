// The benchmark binary; perfbench/run.py builds it and calls it.
//
//   perfbench run   --workload W --seed N --seconds S --digests F
//   perfbench trace --workload W --seed N --seconds S --digests F --trace-dir D
//   perfbench setup --workload W [--spans]
//   perfbench digest --from-chunk A --to-chunk B
//
// `run` measures one workload untraced.  `trace` runs the traced form
// of every workload, so each per-layer metric is measured on the
// workload that exercises it.  `setup` is one fresh-process start-up
// sample.  F is perfbench/nas_digests.txt, the recorded nas-search
// chunk digests; `digest` prints those of chunks [A, B), one a line.
// The last line of stdout is the run's JSON record.
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "serve/client.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const Clock::time_point g_main_entry = Clock::now();

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string word = argv[i];
    if (word.rfind("--", 0) != 0)
      throw std::runtime_error("unexpected argument '" + word + "'");
    const bool has_value = i + 1 < argc &&
                           std::string(argv[i + 1]).rfind("--", 0) != 0;
    flags[word.substr(2)] = has_value ? argv[++i] : "";
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags,
                 const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

bool is_workload(const std::string& w) {
  return w == "serve-hot" || w == "nas-search" || w == "dse-sweep";
}

void provenance(Report& report) {
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", PERFBENCH_COMPILER);
}

/// One start-up sample in this fresh process: the trained estimator for
/// nas-search, and for the server workloads the server answering its
/// first `ready`.  With --spans, the two training calls are timed
/// separately (they are the calls ServeSession's constructor makes).
Report setup_sample(const std::string& workload, bool spans) {
  Report report;
  report.attempted = 1;
  if (spans || workload == "nas-search") {
    Tracer tracer;
    train_estimator(&tracer);
    report.metric("setup_s", seconds_between(g_main_entry, Clock::now()));
    report.metric("core.dataset_build_s",
                  tracer.mean_us("core.dataset_build") * 1e-6);
    report.metric("ml.train_s", tracer.mean_us("ml.train") * 1e-6);
    return report;
  }
  Server server;
  const std::string ready =
      gpuperf::serve::TcpClient("127.0.0.1", server.port()).request("ready");
  report.metric("setup_s", seconds_between(g_main_entry, Clock::now()));
  if (ready.find("\"ready\":true") == std::string::npos)
    report.fail("server not ready: " + ready);
  return report;
}

/// The digest file: one digest a line, '#' lines are comments.
std::vector<std::string> read_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests from '" + path + "'");
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);)
    if (!line.empty() && line[0] != '#') out.push_back(line);
  return out;
}

RunConfig config_from(const std::map<std::string, std::string>& flags) {
  RunConfig c;
  c.workload = flag(flags, "workload", "");
  c.seed = std::stoull(flag(flags, "seed", "0"));
  c.seconds = std::stod(flag(flags, "seconds", "10"));
  c.nas_digests = read_digests(flag(flags, "digests", ""));
  if (!is_workload(c.workload))
    throw std::runtime_error("unknown workload '" + c.workload + "'");
  if (!(c.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return c;
}

Report run(const RunConfig& config) {
  Report report;
  provenance(report);
  if (config.workload == "nas-search") {
    nas_search(train_estimator(nullptr), config, report);
  } else {
    Server server;
    if (config.workload == "serve-hot") serve_hot(server, config, report);
    else dse_sweep(server, config, report);
  }
  return report;
}

Report trace(RunConfig config, const std::string& dir) {
  Report report;
  provenance(report);
  // Three traced forms share the run's time, so a traced run lasts about
  // as long as an untraced one.
  config.seconds /= 3;
  Server server;
  Tracer serve_tracer, nas_tracer, dse_tracer;
  serve_hot_traced(server, config, report, serve_tracer);
  nas_search_traced(server.session().estimator(), config, report, nas_tracer);
  dse_sweep_traced(server, config, report, dse_tracer);
  serve_tracer.write(dir + "/serve-hot.spans.jsonl");
  nas_tracer.write(dir + "/nas-search.spans.jsonl");
  dse_tracer.write(dir + "/dse-sweep.spans.jsonl");
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    Report report;
    if (mode == "run") {
      report = run(config_from(flags));
    } else if (mode == "trace") {
      report = trace(config_from(flags), flag(flags, "trace-dir", "."));
    } else if (mode == "setup") {
      const std::string workload = flag(flags, "workload", "");
      if (!is_workload(workload))
        throw std::runtime_error("unknown workload '" + workload + "'");
      report = setup_sample(workload, flags.count("spans") > 0);
    } else if (mode == "digest") {
      const auto estimator = train_estimator(nullptr);
      const std::size_t from = std::stoull(flag(flags, "from-chunk", "0"));
      const std::size_t to = std::stoull(flag(flags, "to-chunk", "0"));
      for (std::size_t chunk = from; chunk < to && chunk < kNasChunks; ++chunk)
        std::printf("%s\n", nas_chunk_digest(estimator, chunk).c_str());
      return 0;
    } else {
      std::fprintf(stderr, "usage: perfbench run|trace|setup|digest ...\n");
      return 2;
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

// flare_perfbench — runs one benchmark workload against the FLARE libraries
// and prints its raw measurements as one JSON object on stdout. run.py builds
// this binary, runs it, and reduces the samples to the benchmark's metrics.
//
//   flare_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --run-dir DIR
//
// Exit codes: 0 = ran (the JSON carries the check results), 2 = bad usage or
// a non-Release build, 3 = the workload could not run at all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

void run_workload(const RunOptions& options, RunResult& result) {
  if (options.workload == "paper_autok") return run_paper_autok(options, result);
  if (options.workload == "fleet_10x") return run_fleet_10x(options, result);
  if (options.workload == "serve_mix") return run_serve_mix(options, result);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

bool RoundBudget::done(const Pass& pass, double elapsed_s) const {
  if (elapsed_s >= hard_limit_s) return true;
  if (elapsed_s < seconds || pass.rounds.size() < min_rounds) return false;
  for (const char* series : {"eval_ms", "ingest_ms"}) {
    if (pass.total(series) < kQuietShare * kMinTailSamples) return false;
  }
  return true;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += number(values[i]);
  }
  return out + "]";
}

std::string object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    out += quote(name) + ":" + number(value);
  }
  return out + "}";
}

std::string series(const std::map<std::string, std::vector<double>>& values) {
  std::string out = "{";
  for (const auto& [name, samples] : values) {
    if (out.size() > 1) out += ',';
    out += quote(name) + ":" + numbers(samples);
  }
  return out + "}";
}

std::string round_json(const Round& round) {
  return "{\"wall_s\":" + number(round.wall_s) +
         ",\"samples\":" + series(round.samples) +
         ",\"ingest_rows\":" + std::to_string(round.ingest_rows) +
         ",\"steady_ops\":" + std::to_string(round.steady_ops) +
         ",\"steady_wall_s\":" + number(round.steady_wall_s) +
         ",\"peak_rss_mb\":" + number(round.peak_rss_mb) + "}";
}

std::string pass_json(const Pass& pass) {
  std::string rounds = "[";
  for (const Round& round : pass.rounds) {
    if (rounds.size() > 1) rounds += ',';
    rounds += round_json(round);
  }
  rounds += "]";
  std::string replayed = "[";
  for (const std::string& series : pass.replayed) {
    if (replayed.size() > 1) replayed += ',';
    replayed += quote(series);
  }
  replayed += "]";
  return "{\"rounds\":" + rounds + ",\"replayed\":" + replayed +
         ",\"attempted\":" + std::to_string(pass.attempted) +
         ",\"failed\":" + std::to_string(pass.failed) + "}";
}

std::string result_json(const RunOptions& options, const RunResult& r) {
  std::string failures = "[";
  for (const std::string& f : r.checks.failures()) {
    if (failures.size() > 1) failures += ',';
    failures += quote(f);
  }
  failures += "]";
  std::string out = "{\"workload\":" + quote(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
                    ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
                    ",\"plain\":" + pass_json(r.plain);
  if (r.traced) out += ",\"traced\":" + pass_json(*r.traced);
  out += ",\"deterministic\":{\"estimate_error_pp\":" +
         number(r.det.estimate_error_pp) +
         ",\"replay_cost_ratio\":" + number(r.det.replay_cost_ratio) +
         ",\"counts\":" + object(r.det.counts) + "}";
  out += ",\"layer_values\":" + object(r.layer_values);
  out += ",\"layer_samples\":" + series(r.layer_samples);
  out += ",\"checks\":{\"passed\":" + std::to_string(r.checks.passed()) +
         ",\"failures\":" + failures + "}}";
  return out;
}

int usage(const std::string& error) {
  std::fprintf(stderr,
               "flare_perfbench: %s\nusage: flare_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --run-dir DIR\n",
               error.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#ifndef NDEBUG
  std::fprintf(stderr, "flare_perfbench: refusing to measure a build without "
                       "NDEBUG; rebuild with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "flare_perfbench: build type is %s, not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  RunOptions options;
  bool have_workload = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--run-dir") {
        options.run_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (argc % 2 != 1 || !have_workload || options.run_dir.empty() ||
      !(options.seconds > 0.0)) {
    return usage("missing or malformed arguments");
  }

  RunResult result;
  try {
    std::filesystem::create_directories(options.run_dir);
    run_workload(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flare_perfbench: %s\n", e.what());
    return 3;
  }
  std::printf("%s\n", result_json(options, result).c_str());
  return 0;
}

// The three benchmark workloads. Each one generates its inputs from the seed,
// runs measured rounds against the FLARE libraries until the time budget is
// spent, checks every output it times, and — on traced runs — walks the
// analysis layer by layer for the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of one pass
  bool trace = false;
  /// Scratch directory for trace CSVs, serve state and the socket. Relative
  /// to the working directory, so socket paths stay short.
  std::string run_dir;
};

struct RunResult {
  Pass plain;
  std::optional<Pass> traced;  ///< traced runs only
  Deterministic det;
  /// Per-layer values (traced runs): scalars, and raw latency series that
  /// run.py reduces to percentiles.
  std::map<std::string, double> layer_values;
  std::map<std::string, std::vector<double>> layer_samples;
  Checks checks;
};

/// Runs `options.workload`; throws std::invalid_argument on unknown names.
void run_workload(const RunOptions& options, RunResult& result);

// Individual workloads (workload_pipeline.cpp / workload_serve.cpp).
void run_paper_autok(const RunOptions& options, RunResult& result);
void run_fleet_10x(const RunOptions& options, RunResult& result);
void run_serve_mix(const RunOptions& options, RunResult& result);

/// Stops a pass once its budget is spent and it has enough rounds and
/// samples for the fastest third of its rounds to carry every statistic;
/// `hard_limit_s` caps a pass whose rounds are unexpectedly slow.
struct RoundBudget {
  double seconds = 10.0;
  std::size_t min_rounds = 3 * kQuietShare;  ///< warm-up excluded
  double hard_limit_s = 120.0;

  [[nodiscard]] bool done(const Pass& pass, double elapsed_s) const;
};

}  // namespace perfbench

// Traced layer walk: re-runs one workload's fit and estimates through each
// layer's public entry point — trace load, Profiler, the analysis stages,
// the ml and linalg kernels, the estimator — with a span around every call.
// The per-layer metrics of a traced run are read off these spans' totals.
#pragma once

#include <functional>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerWalk {
  /// The workload's fitted pipelines: one for a single population, one per
  /// shape for the fleet. The walk re-derives each one's analysis.
  std::vector<const flare::core::FlarePipeline*> shards;
  /// Loads the workload's base trace (the timed trace-load call).
  std::function<void()> load_trace;
  /// Fits the whole fleet the way the workload does (ShardedPipeline); unset
  /// for a single population, whose speedup is 1 by definition.
  std::function<void()> fit_fleet;
};

/// Walks the layers `reps` times and stores every per-layer value of the
/// analysis path in `result.layer_values` (medians over the repetitions;
/// counts from the first). Checks that the walk reproduces each fitted
/// pipeline's representatives and cluster weights exactly.
void walk_layers(const LayerWalk& walk, int reps, RunResult& result);

/// Zeroes the per-layer names of layers a workload never exercises.
void zero_ingest_layers(RunResult& result);
void zero_serve_layers(RunResult& result);

}  // namespace perfbench

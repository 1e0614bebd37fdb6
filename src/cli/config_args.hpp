// Shared option parsers for the `flare` commands: the --schema name map plus
// the analyzer and --threads knobs that several commands accept with
// identical spellings, and the one pipeline path of `flare analyze|evaluate|
// ingest|campaign|report`: the fleet is --shapes, or else the one-shape fleet
// {--machine : 1}, and the command runs one core::ShardedPipeline over it. A
// one-shape ShardedPipeline is bit-identical to a FlarePipeline (ctest -L
// shard), so a plain run prints what it always has.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "core/analyzer.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_pipeline.hpp"
#include "dcsim/dynamics.hpp"

namespace flare::cli {

[[nodiscard]] core::MetricSchema schema_by_name(const std::string& name);

/// The shape table a pipeline command runs on.
struct RunFleet {
  dcsim::FleetConfig config;
  /// --shapes given: trace rows must name a shape of the table and route to
  /// it, and commands print their fleet lines. A plain run takes every row
  /// as its one shape's, whatever the row's tag.
  bool routed = false;

  /// Reads a scenario trace, rejecting rows outside the table under --shapes.
  [[nodiscard]] dcsim::ScenarioSet load(const std::string& path) const;
  /// `set` as the pipeline routes it: a plain run relabels every row with
  /// its one shape.
  [[nodiscard]] dcsim::ScenarioSet route(dcsim::ScenarioSet set) const;
};

/// --shapes, or else {--machine : 1} (the default machine for a command
/// without --machine). Both flags together are a ParseError.
[[nodiscard]] RunFleet run_fleet_from(const Args& args, bool machine_flag = true);

/// One shard per shape, `config` as every shard's template, fitted on
/// `population`.
[[nodiscard]] core::ShardedPipeline fit_fleet(const RunFleet& fleet,
                                              const core::FlareConfig& config,
                                              const dcsim::ScenarioSet& population);

/// Full-datacenter ground truth per shard, over its own population, and
/// fanned in with the population weights.
struct FleetTruth {
  double fleet = 0.0;
  std::vector<double> per_shape;
};
[[nodiscard]] FleetTruth fleet_truth(const core::ShardedPipeline& pipeline,
                                     const core::Feature& feature);

/// Shared --refit-policy knob (ingest/serve): auto (default)|never|always.
[[nodiscard]] core::RefitPolicy refit_policy_from(const Args& args);

/// Shared --threads knob: 1 = serial (default), 0 = all hardware threads.
[[nodiscard]] std::size_t threads_from(const Args& args);

/// Shared analyzer knobs: --clusters/--auto-k, --quality-curve, --ward,
/// --no-whiten, --no-refine, --kmeans-mode exact|minibatch|auto, --threads.
[[nodiscard]] core::AnalyzerConfig analyzer_config_from(const Args& args);

/// Shared --memory-budget knob (MiB; 0 = unbounded), returned in bytes.
[[nodiscard]] std::size_t memory_budget_from(const Args& args);

/// Shared replay-plane knobs for commands that reach step 4:
/// --replay-faults R (all five testbed fault classes at rate R),
/// --replay-fault-seed S, --replay-retries N, --replay-deadline D (seconds),
/// --replay-ci W (target CI half-width, pp), --max-quarantined-mass M.
/// Fills config.replay / config.replay_faults; with none of the flags given
/// the config keeps its defaults and the clean path stays bit-identical.
void apply_replay_args(const Args& args, core::FlareConfig& config);

/// Shared --dynamics knob: parses the generator spec (dcsim dynamics.hpp)
/// and cross-validates it against the other flags. Rejected with positioned
/// ParseErrors: `--dynamics` without a seed source (an explicit --seed or
/// --dynamics-seed — the episode schedules must be reproducible), a
/// shape-scoped generator without a --shapes fleet, and a scope naming a
/// shape the fleet does not contain. Also consumes --dynamics-seed (schedule
/// RNG; default derives a decorrelated substream from --seed) and
/// --dynamics-start (absolute start hour for streaming batch windows).
/// nullopt when --dynamics is absent — the stationary path, bit-identical.
[[nodiscard]] std::optional<dcsim::WorkloadDynamics> dynamics_from(
    const Args& args, const RunFleet& fleet);

/// Shared --drift-response knob (ingest/serve): "on", "off", or a
/// comma-separated key=value list (implies on) with keys
/// ewma|confirm|cooldown|cusum-ref|cusum|budget|widen|widen-cap|coherence|
/// min-rows mapped onto core::DriftResponseConfig. Malformed entries throw
/// ParseError naming the offending entry. Absent flag leaves the response
/// disabled (the historical ingest path, bit-identical).
void apply_drift_response_args(const Args& args, core::FlareConfig& config);

}  // namespace flare::cli

// Workload inputs. Base populations are the fixed traces the workloads are
// defined on; everything that arrives after the fit — ingest windows, the
// drift episode schedule — is drawn from the run's seed. The same seed always
// yields the same inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature.hpp"
#include "dcsim/dynamics.hpp"
#include "dcsim/fleet.hpp"
#include "dcsim/scenario.hpp"

namespace perfbench {

/// Decorrelated sub-seed for one named input of a run.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

/// The paper trace: 895 scenarios from the default SubmissionConfig on the
/// default machine.
[[nodiscard]] flare::dcsim::ScenarioSet paper_trace();

/// The 10× fleet: shapes default:6, small:2, dense:2 with ~3000 scenarios
/// each, merged into one shape-tagged set.
[[nodiscard]] flare::dcsim::FleetConfig fleet_shapes();
[[nodiscard]] flare::dcsim::ScenarioSet fleet_trace();

/// Stationary telemetry windows (no dynamics) on the default machine.
[[nodiscard]] std::vector<flare::dcsim::ScenarioSet> stationary_stream(
    std::uint64_t seed, int batches, std::size_t rows);

/// Stationary mixed-shape windows for the fleet: `rows_per_shape` from each
/// shape per batch.
[[nodiscard]] std::vector<flare::dcsim::ScenarioSet> fleet_stream(
    std::uint64_t seed, int batches, std::size_t rows_per_shape);

/// Drifting windows: flash crowds, a rolling upgrade a third of the way in,
/// and co-location anomaly episodes, with episode schedules from the seed.
[[nodiscard]] std::vector<flare::dcsim::ScenarioSet> drift_stream(
    std::uint64_t seed, int batches, std::size_t rows);

/// The three Table-4 features, in paper order.
[[nodiscard]] std::vector<flare::core::Feature> table4_features();

/// Writes `set` as a scenario CSV under `dir`; returns the path.
std::string write_trace(const std::string& dir, const std::string& name,
                        const flare::dcsim::ScenarioSet& set);

/// Rows across a stream.
[[nodiscard]] std::size_t total_rows(
    const std::vector<flare::dcsim::ScenarioSet>& stream);

}  // namespace perfbench

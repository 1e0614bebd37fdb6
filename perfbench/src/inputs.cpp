#include "inputs.hpp"

#include "dcsim/machine_config.hpp"
#include "dcsim/submission.hpp"
#include "trace/scenario_io.hpp"
#include "util/seed_stream.hpp"

namespace perfbench {

namespace dcsim = flare::dcsim;

namespace {

constexpr double kWindowHours = 6.0;
constexpr int kUpgradeWindow = 20;  ///< rolling upgrade starts at this batch

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  return flare::util::derive_stream(tag, seed, 0x5EEDull);
}

dcsim::ScenarioSet paper_trace() {
  return dcsim::generate_scenario_set(dcsim::SubmissionConfig{},
                                      dcsim::default_machine());
}

dcsim::FleetConfig fleet_shapes() {
  return dcsim::parse_fleet_spec("default:6,small:2,dense:2");
}

dcsim::ScenarioSet fleet_trace() {
  dcsim::SubmissionConfig config;
  config.target_distinct_scenarios = 3000;
  return dcsim::generate_fleet_scenario_set(config, fleet_shapes()).merged();
}

std::vector<dcsim::ScenarioSet> stationary_stream(std::uint64_t seed,
                                                  int batches,
                                                  std::size_t rows) {
  dcsim::SubmissionConfig config;
  config.seed = derive_seed(seed, "stationary");
  std::vector<dcsim::ScenarioSet> stream;
  for (int b = 0; b < batches; ++b) {
    stream.push_back(dcsim::generate_dynamics_batch(
        config, dcsim::default_machine(), dcsim::WorkloadDynamics{}, b,
        kWindowHours, rows));
  }
  return stream;
}

std::vector<dcsim::ScenarioSet> fleet_stream(std::uint64_t seed, int batches,
                                             std::size_t rows_per_shape) {
  const dcsim::FleetConfig fleet = fleet_shapes();
  std::vector<dcsim::ScenarioSet> stream;
  for (int b = 0; b < batches; ++b) {
    dcsim::FleetScenarioSet windows;
    for (const dcsim::ShapePopulation& shape : fleet.shapes) {
      dcsim::SubmissionConfig config;
      config.seed = derive_seed(seed, "fleet/" + shape.machine.name);
      config.num_machines = shape.num_machines;
      windows.per_shape.push_back(dcsim::generate_dynamics_batch(
          config, shape.machine, dcsim::WorkloadDynamics{}, b, kWindowHours,
          rows_per_shape));
    }
    stream.push_back(windows.merged());
  }
  return stream;
}

std::vector<dcsim::ScenarioSet> drift_stream(std::uint64_t seed, int batches,
                                             std::size_t rows) {
  dcsim::WorkloadDynamics dynamics;
  dynamics.seed = derive_seed(seed, "episodes");
  dynamics.flash.enabled = true;
  dynamics.flash.episodes_per_khour = 40.0;
  dynamics.flash.duration_hours = 2.0;
  dynamics.flash.arrival_multiplier = 4.0;
  dynamics.upgrade.enabled = true;
  dynamics.upgrade.at_hours = kUpgradeWindow * kWindowHours;
  dynamics.upgrade.migrated_fraction = 0.75;
  dynamics.upgrade.shift = 0.3;
  dynamics.anomaly.enabled = true;
  dynamics.anomaly.episodes_per_khour = 30.0;
  dynamics.anomaly.duration_hours = 4.0;
  dynamics.anomaly.intensity = 1.0;
  dynamics.anomaly.machine_fraction = 0.5;

  dcsim::SubmissionConfig config;
  config.seed = derive_seed(seed, "drift");
  std::vector<dcsim::ScenarioSet> stream;
  for (int b = 0; b < batches; ++b) {
    stream.push_back(dcsim::generate_dynamics_batch(
        config, dcsim::default_machine(), dynamics, b, kWindowHours, rows));
  }
  return stream;
}

std::vector<flare::core::Feature> table4_features() {
  return flare::core::standard_features();
}

std::string write_trace(const std::string& dir, const std::string& name,
                        const dcsim::ScenarioSet& set) {
  const std::string path = dir + "/" + name;
  flare::trace::save_scenario_set(set, path);
  return path;
}

std::size_t total_rows(const std::vector<dcsim::ScenarioSet>& stream) {
  std::size_t rows = 0;
  for (const dcsim::ScenarioSet& batch : stream) rows += batch.scenarios.size();
  return rows;
}

}  // namespace perfbench

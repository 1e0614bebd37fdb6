// Job co-location scenarios — FLARE's basic unit of evaluation (§4.1):
// "every new combination of jobs [on one machine] defines a new scenario".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dcsim/job_types.hpp"

namespace flare::dcsim {

/// The multiset of 4-vCPU container instances sharing one machine.
struct JobMix {
  std::array<int, kNumJobTypes> instances{};  ///< count per job type

  [[nodiscard]] int count(JobType type) const { return instances[job_index(type)]; }
  void add(JobType type, int n = 1) { instances[job_index(type)] += n; }
  void remove(JobType type, int n = 1);

  [[nodiscard]] int total_instances() const;
  [[nodiscard]] int hp_instances() const;
  [[nodiscard]] int lp_instances() const;
  [[nodiscard]] bool empty() const { return total_instances() == 0; }

  /// vCPUs consumed (4 per instance).
  [[nodiscard]] int vcpus() const { return total_instances() * 4; }
  [[nodiscard]] int hp_vcpus() const { return hp_instances() * 4; }
  [[nodiscard]] int lp_vcpus() const { return lp_instances() * 4; }

  /// Canonical textual key, e.g. "DA:2,DC:1,mcf:3" — used for deduplication
  /// and trace round-trips. Empty mix yields "".
  [[nodiscard]] std::string key() const;

  /// `util::fnv1a(key(), seed)` without building the key string.
  [[nodiscard]] std::uint64_t key_hash(std::uint64_t seed) const;

  /// Parses a key produced by `key()`; throws ParseError on malformed input.
  [[nodiscard]] static JobMix from_key(std::string_view key);

  [[nodiscard]] bool operator==(const JobMix&) const = default;

 private:
  /// Calls `append(std::string_view)` with the key's pieces in order.
  template <typename Append>
  void for_each_key_piece(Append&& append) const;
};

/// A deduplicated scenario observed in the (simulated) datacenter, together
/// with how often it was observed. The observation weight is the total
/// machine-time spent in the mix — scenarios seen longer/more often matter
/// more when summarising the datacenter.
struct ColocationScenario {
  std::size_t id = 0;          ///< dense index within a ScenarioSet
  JobMix mix;
  double observation_weight = 1.0;
  std::string machine_type = "default";

  // --- Non-stationarity tags (dcsim/dynamics.hpp; defaults = stationary).
  // A row whose tags differ from these defaults was observed under a rolling
  // upgrade or an anomalous co-location episode; the Profiler overlays the
  // corresponding counter distortion deterministically from the tags, so a
  // tagged trace round-trips to bit-identical metric rows.
  /// Job-profile version the submitting machine ran (1 = baseline).
  int profile_version = 1;
  /// Log-scale counter-shift magnitude for version ≥ 2 rows.
  double profile_shift = 0.0;
  /// Anomaly episode id (1-based; 0 = unaffected). Rows sharing an id were
  /// corrupted together — the cluster-coherent unit quarantine fences.
  std::uint32_t anomaly_episode = 0;
  /// Log-scale corruption magnitude of that episode.
  double anomaly_intensity = 0.0;

  /// Any tag off its stationary default?
  [[nodiscard]] bool dynamic_tagged() const {
    return profile_version != 1 || anomaly_episode != 0;
  }
};

/// The profiled population of scenarios for one machine shape.
struct ScenarioSet {
  std::vector<ColocationScenario> scenarios;
  std::string machine_type = "default";

  [[nodiscard]] std::size_t size() const { return scenarios.size(); }
  [[nodiscard]] double total_weight() const;

  /// Normalised observation weights (sum to 1).
  [[nodiscard]] std::vector<double> normalized_weights() const;
};

}  // namespace flare::dcsim

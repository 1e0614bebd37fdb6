#include "dcsim/counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string_view>

#include "core/profiler.hpp"
#include "dcsim/submission.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace flare::dcsim {
namespace {

ModelOptions noiseless_model() {
  ModelOptions o;
  o.enable_noise = false;
  return o;
}

CounterOptions noiseless_counters() {
  CounterOptions o;
  o.enable_noise = false;
  return o;
}

class CountersTest : public ::testing::Test {
 protected:
  CountersTest() : model_(default_job_catalog(), noiseless_model()) {
    mix_.add(JobType::kDataCaching, 2);
    mix_.add(JobType::kGraphAnalytics, 1);
    mix_.add(JobType::kLpMcf, 3);
    perf_ = model_.evaluate(machine_, mix_);
  }

  double metric(const std::vector<double>& row, std::string_view name) const {
    const auto idx = schema_.index_of(name);
    EXPECT_TRUE(idx.has_value()) << name;
    return row[*idx];
  }

  MachineConfig machine_ = default_machine();
  InterferenceModel model_;
  JobMix mix_;
  ScenarioPerformance perf_;
  const metrics::MetricCatalog& schema_ = metrics::MetricCatalog::standard();
};

TEST_F(CountersTest, ProducesEveryCatalogMetric) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  EXPECT_EQ(row.size(), schema_.size());
  for (const double v : row) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(CountersTest, OccupancyMetricsAreExact) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  EXPECT_DOUBLE_EQ(metric(row, "Machine.TotalOccupancy_vCPU"), 24.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.HPOccupancy_vCPU"), 12.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.LPOccupancy_vCPU"), 12.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.FreeVCPUs"), 24.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.NumContainers"), 6.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.NumHPContainers"), 3.0);
}

TEST_F(CountersTest, OccupancyMetricsExactEvenWithNoise) {
  CounterOptions noisy;
  noisy.enable_noise = true;
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_, noisy);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.TotalOccupancy_vCPU"), 24.0);
  EXPECT_DOUBLE_EQ(metric(row, "Machine.NumContainers"), 6.0);
}

TEST_F(CountersTest, TwoLevelSemantics) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  // Machine MIPS includes the LP jobs; HP MIPS does not.
  EXPECT_GT(metric(row, "Machine.MIPS"), metric(row, "HP.MIPS"));
  EXPECT_NEAR(metric(row, "Machine.MIPS"), perf_.total_mips, 1e-6);
  EXPECT_NEAR(metric(row, "HP.MIPS"), perf_.hp_mips, 1e-6);
  // LP jobs (SPEC) move no network traffic: levels agree there.
  EXPECT_NEAR(metric(row, "Machine.Network_Mbps"), metric(row, "HP.Network_Mbps"),
              1e-9);
}

TEST_F(CountersTest, DesignedDuplicatesHoldExactly) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  EXPECT_NEAR(metric(row, "Machine.InstrPerSec"),
              metric(row, "Machine.MIPS") * 1e6, 1e-3);
  EXPECT_NEAR(metric(row, "HP.LLC_HitRatio"), 1.0 - metric(row, "HP.LLC_MissRatio"),
              1e-12);
  EXPECT_NEAR(metric(row, "Machine.MemBW_BytesPerSec"),
              metric(row, "Machine.MemBW_GBps") * 1e9, 1.0);
  EXPECT_NEAR(metric(row, "Machine.MemReadBW_GBps") +
                  metric(row, "Machine.MemWriteBW_GBps"),
              metric(row, "Machine.MemBW_GBps"), 1e-9);
  EXPECT_NEAR(metric(row, "HP.L2_MPKI"), 1.15 * metric(row, "HP.LLC_APKI"), 1e-9);
  EXPECT_NEAR(metric(row, "Machine.TD_BackendBound"),
              metric(row, "Machine.TD_BackendMem") +
                  metric(row, "Machine.TD_BackendCore"),
              1e-9);
  EXPECT_NEAR(metric(row, "Machine.SoftIRQPerSec"),
              0.6 * metric(row, "Machine.IRQPerSec"), 1e-9);
}

TEST_F(CountersTest, UtilisationFractionsInRange) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  for (const char* name :
       {"Machine.CPU_UtilFrac", "HP.CPU_UtilFrac", "Machine.DRAM_UtilFrac",
        "Machine.SMTSharedFrac", "Machine.TD_Retiring", "HP.TD_Retiring"}) {
    EXPECT_GE(metric(row, name), 0.0) << name;
    EXPECT_LE(metric(row, name), 1.0 + 1e-9) << name;
  }
}

TEST_F(CountersTest, NoiseIsDeterministicPerStream) {
  CounterOptions noisy;
  const auto a = synthesize_counters(perf_, default_job_catalog(), schema_, noisy, 3);
  const auto b = synthesize_counters(perf_, default_job_catalog(), schema_, noisy, 3);
  const auto c = synthesize_counters(perf_, default_job_catalog(), schema_, noisy, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST_F(CountersTest, FamilyJitterMovesFamiliesTogether) {
  CounterOptions jitter_only;
  jitter_only.measurement_noise_sigma = 0.0;
  jitter_only.subgroup_jitter_sigma = 0.0;
  jitter_only.family_jitter_sigma = 0.3;
  const auto clean = synthesize_counters(perf_, default_job_catalog(), schema_,
                                         noiseless_counters());
  const auto jittered =
      synthesize_counters(perf_, default_job_catalog(), schema_, jitter_only, 5);
  // Within the Network family at one level, the multiplicative factor is
  // identical for every metric.
  const double f1 =
      metric(jittered, "Machine.Network_Mbps") / metric(clean, "Machine.Network_Mbps");
  const double f2 = metric(jittered, "Machine.NetworkUtilFrac") /
                    metric(clean, "Machine.NetworkUtilFrac");
  EXPECT_NEAR(f1, f2, 1e-9);
  EXPECT_NE(std::abs(f1 - 1.0), 0.0);  // jitter did something
}

TEST_F(CountersTest, HpLevelOfMachineOnlyMetricsDoesNotExist) {
  EXPECT_FALSE(schema_.index_of("HP.TotalOccupancy_vCPU").has_value());
  EXPECT_FALSE(schema_.index_of("HP.Power_W").has_value());
  EXPECT_TRUE(schema_.index_of("Machine.Power_W").has_value());
}

TEST_F(CountersTest, PhysicalPlausibility) {
  const auto row = synthesize_counters(perf_, default_job_catalog(), schema_,
                                       noiseless_counters());
  // Power between idle floor and a dual-socket ceiling.
  EXPECT_GT(metric(row, "Machine.Power_W"), 75.0);
  EXPECT_LT(metric(row, "Machine.Power_W"), 400.0);
  EXPECT_GT(metric(row, "Machine.Temperature_C"), 30.0);
  EXPECT_LT(metric(row, "Machine.Temperature_C"), 95.0);
  EXPECT_LE(metric(row, "Machine.LLC_Occupancy_MB"),
            machine_.total_llc_mb() + 1e-9);
  EXPECT_GT(metric(row, "Machine.IPC"), 0.1);
  EXPECT_LT(metric(row, "Machine.IPC"), 4.0);
}

metrics::MetricCatalog schema_with_bogus_metric() {
  std::vector<metrics::MetricInfo> metrics =
      metrics::MetricCatalog::standard().metrics();
  metrics::MetricInfo bogus;
  bogus.index = metrics.size();
  bogus.name = "Machine.Bogus_Counter";
  bogus.base_name = "Bogus_Counter";
  metrics.push_back(bogus);
  return metrics::MetricCatalog(std::move(metrics));
}

TEST_F(CountersTest, UnknownSchemaMetricFailsAtPlanCompilation) {
  const metrics::MetricCatalog schema = schema_with_bogus_metric();
  try {
    const CounterPlan plan(schema, {});
    FAIL() << "a schema metric the synthesizer does not produce compiled";
  } catch (const SchemaError& e) {
    EXPECT_NE(std::string_view(e.what()).find("Machine.Bogus_Counter"),
              std::string_view::npos)
        << e.what();
  }
  // The one-shot wrapper compiles the same plan and fails the same way.
  EXPECT_THROW(static_cast<void>(synthesize_counters(
                   perf_, default_job_catalog(), schema, {})),
               SchemaError);
}

TEST_F(CountersTest, ProfilerRejectsUnknownSchemaMetricBeforeSampling) {
  const metrics::MetricCatalog schema = schema_with_bogus_metric();
  ScenarioSet set;
  ColocationScenario scenario;
  scenario.mix = mix_;
  set.scenarios.push_back(scenario);
  const core::Profiler profiler(model_);
  EXPECT_THROW(static_cast<void>(profiler.profile(set, machine_, schema)),
               SchemaError);
  EXPECT_THROW(
      static_cast<void>(profiler.profile_scenario(scenario, machine_, schema)),
      SchemaError);
}

TEST_F(CountersTest, PlanSubgroupsHonourSubgroupCount) {
  for (const int count : {1, 3, 14, 29}) {
    CounterOptions options;
    options.subgroup_count = count;
    const CounterPlan plan(schema_, options);
    ASSERT_EQ(plan.size(), schema_.size());
    EXPECT_EQ(plan.subgroup_count(), static_cast<std::size_t>(count));
    for (const metrics::MetricInfo& info : schema_.metrics()) {
      EXPECT_EQ(plan.column(info.index).subgroup,
                util::fnv1a(info.base_name) % static_cast<std::uint64_t>(count))
          << info.name << " with " << count << " subgroups";
    }
  }
  // Non-positive counts collapse to a single shared latent.
  CounterOptions none;
  none.subgroup_count = 0;
  EXPECT_EQ(CounterPlan(schema_, none).subgroup_count(), 1u);
}

TEST_F(CountersTest, SingleSubgroupScalesEveryNoisyCounterTogether) {
  CounterOptions subgroup_only;
  subgroup_only.measurement_noise_sigma = 0.0;
  subgroup_only.family_jitter_sigma = 0.0;
  subgroup_only.subgroup_jitter_sigma = 0.3;
  subgroup_only.subgroup_count = 1;
  const CounterPlan plan(schema_, subgroup_only);
  const auto clean = synthesize_counters(perf_, default_job_catalog(), schema_,
                                         noiseless_counters());
  const auto jittered =
      synthesize_counters(perf_, default_job_catalog(), plan, 9);
  const double factor =
      metric(jittered, "Machine.MIPS") / metric(clean, "Machine.MIPS");
  EXPECT_NE(factor, 1.0);
  for (const metrics::MetricInfo& info : schema_.metrics()) {
    if (clean[info.index] == 0.0) continue;
    const double expected =
        info.category == metrics::MetricCategory::kOccupancy ? 1.0 : factor;
    EXPECT_NEAR(jittered[info.index] / clean[info.index], expected, 1e-12)
        << info.name;
  }
}

// --- Bit-exact golden over the paper trace ---------------------------------
//
// Hashes captured from the string-keyed synthesizer before the counter plan
// replaced it. Every formula, noise factor and RNG draw must stay put, so a
// change to any of these hashes is a behaviour change, never a re-baseline.

/// Every 18th scenario of the paper trace (895 rows) — 50 scenarios spanning
/// the whole occupancy range.
const ScenarioSet& golden_scenarios() {
  static const ScenarioSet kSet = [] {
    const ScenarioSet trace =
        generate_scenario_set(SubmissionConfig{}, default_machine());
    ScenarioSet subset;
    subset.machine_type = trace.machine_type;
    for (std::size_t i = 0; i < trace.scenarios.size(); i += 18) {
      subset.scenarios.push_back(trace.scenarios[i]);
    }
    return subset;
  }();
  return kSet;
}

void mix_doubles(std::uint64_t& h, const std::vector<double>& values) {
  h = util::fnv1a(std::string_view(reinterpret_cast<const char*>(values.data()),
                                   values.size() * sizeof(double)),
                  h);
}

/// Hash of synthesize_counters over the golden scenarios × 4 noise streams,
/// each stream also driving the interference model's own noise (as the
/// Profiler does).
std::uint64_t synthesis_hash(const metrics::MetricCatalog& schema,
                             CounterOptions options) {
  const InterferenceModel model;
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const ColocationScenario& scenario : golden_scenarios().scenarios) {
    for (std::uint64_t s = 0; s < 4; ++s) {
      const std::uint64_t stream = util::hash_mix(0x601DEull, scenario.id * 4 + s);
      const ScenarioPerformance perf =
          model.evaluate(default_machine(), scenario.mix, stream);
      mix_doubles(h, synthesize_counters(perf, model.catalog(), schema, options,
                                         stream));
    }
  }
  return h;
}

TEST(CounterSynthesisGolden, StandardSchemaIsBitIdentical) {
  EXPECT_EQ(golden_scenarios().size(), 50u);
  EXPECT_EQ(synthesis_hash(metrics::MetricCatalog::standard(), {}),
            0x362f153f3e1398a6ull);
}

TEST(CounterSynthesisGolden, JobMixSchemaIsBitIdentical) {
  EXPECT_EQ(
      synthesis_hash(metrics::MetricCatalog::standard_with_job_mix(), {}),
      0x234d3a95bba0ac7eull);
}

TEST(CounterSynthesisGolden, NoiseOffIsBitIdentical) {
  EXPECT_EQ(synthesis_hash(metrics::MetricCatalog::standard(),
                           noiseless_counters()),
            0x66f97c641f531827ull);
}

TEST(CounterSynthesisGolden, TemporalStddevProfileIsBitIdentical) {
  const InterferenceModel model;
  const core::Profiler profiler(model);
  const metrics::MetricCatalog schema =
      metrics::MetricCatalog::with_temporal_stddev(
          metrics::MetricCatalog::standard());
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const ColocationScenario& scenario : golden_scenarios().scenarios) {
    mix_doubles(h, profiler.profile_scenario(scenario, default_machine(), schema)
                       .values);
  }
  EXPECT_EQ(h, 0x40d2ab5ee134154eull);
}

TEST(CounterSynthesisGolden, ProfileIsBitIdenticalForOneAndFourThreads) {
  const InterferenceModel model;
  core::ProfilerConfig serial_config;
  serial_config.threads = 1;
  core::ProfilerConfig parallel_config;
  parallel_config.threads = 4;
  const metrics::MetricDatabase serial =
      core::Profiler(model, serial_config)
          .profile(golden_scenarios(), default_machine());
  const metrics::MetricDatabase parallel =
      core::Profiler(model, parallel_config)
          .profile(golden_scenarios(), default_machine());
  ASSERT_EQ(serial.num_rows(), parallel.num_rows());
  std::uint64_t h = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < serial.num_rows(); ++i) {
    EXPECT_EQ(serial.row(i).values, parallel.row(i).values) << "row " << i;
    mix_doubles(h, serial.row(i).values);
  }
  EXPECT_EQ(h, 0x517363b93043addaull);
}

/// Profiler hash over the golden scenarios with rolling-upgrade and
/// anomaly tags, which route every sample through the dynamics overlay.
std::uint64_t tagged_profile_hash(const core::ProfilerConfig& config) {
  ScenarioSet tagged = golden_scenarios();
  for (std::size_t i = 0; i < tagged.scenarios.size(); ++i) {
    ColocationScenario& s = tagged.scenarios[i];
    if (i % 3 != 2) {
      s.profile_version = 2;
      s.profile_shift = 0.25;
    }
    if (i % 3 != 0) {
      s.anomaly_episode = static_cast<std::uint32_t>(1 + i % 4);
      s.anomaly_intensity = 0.4;
    }
  }
  const InterferenceModel model;
  const metrics::MetricDatabase db =
      core::Profiler(model, config).profile(tagged, default_machine());
  std::uint64_t h = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < db.num_rows(); ++i) mix_doubles(h, db.row(i).values);
  return h;
}

TEST(CounterSynthesisGolden, DynamicsTaggedProfileIsBitIdentical) {
  EXPECT_EQ(tagged_profile_hash({}), 0xae47c853b0742521ull);
  // The faulty path overlays each read (retries included) the same way.
  core::ProfilerConfig faulty;
  faulty.faults = FaultOptions::uniform(0.02);
  EXPECT_EQ(tagged_profile_hash(faulty), 0x5324540185913b55ull);
}

}  // namespace
}  // namespace flare::dcsim

#include "dcsim/counters.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>

#include "stats/rng.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/seed_stream.hpp"

namespace flare::dcsim {
namespace {

/// Aggregated view over a subset of the scenario's jobs (all vs HP-only).
struct LevelAggregate {
  double mips = 0.0;          // M instr/s
  double cycles_per_sec = 0.0;
  double busy_threads = 0.0;
  double llc_apki = 0.0;      // instruction-weighted
  double llc_mpki = 0.0;
  double llc_miss_ratio = 0.0;
  double llc_occupancy_mb = 0.0;
  double l1d_mpki = 0.0;
  double l1i_mpki = 0.0;
  double tlb_mpki = 0.0;
  double branch_mpki = 0.0;
  double load_pki = 0.0;
  double store_pki = 0.0;
  double mem_bw_gbps = 0.0;
  double eff_mem_latency_ns = 0.0;
  double dram_gb = 0.0;
  double td_fe = 0.0, td_bs = 0.0, td_ret = 0.0, td_mem = 0.0, td_core = 0.0;
  double alu_util = 0.0;
  double fp_util = 0.0;
  double spin = 0.0;
  double uops_per_instr = 0.0;
  double prefetch_pki = 0.0;
  double br_mispred_ratio = 0.0;
  double context_switches = 0.0;
  double network_mbps = 0.0;
  double disk_iops = 0.0;
};

LevelAggregate aggregate(const ScenarioPerformance& perf, const JobCatalog& catalog,
                         const MachineConfig& machine, bool hp_only) {
  LevelAggregate a;
  const double freq_hz = machine.max_freq_ghz * 1e9;
  double instr_weight = 0.0;

  for (const JobTypePerformance& j : perf.jobs) {
    const JobProfile& p = catalog.profile(j.type);
    if (hp_only && !p.high_priority) continue;
    const double n = static_cast<double>(j.instances);
    const double type_mips = j.mips_per_instance * n;  // M instr/s
    const double w = type_mips;

    a.mips += type_mips;
    const double threads = n * static_cast<double>(p.vcpus) * p.cpu_utilization;
    a.busy_threads += threads;
    a.cycles_per_sec += threads * freq_hz * j.core_speed_factor;
    a.llc_occupancy_mb += j.cache_mb_per_instance * n;
    a.mem_bw_gbps += j.mem_bw_gbps_per_instance * n;
    a.dram_gb += p.dram_gb * n;
    a.network_mbps += p.network_mbps * n;
    a.disk_iops += p.disk_iops * n;

    // Instruction-weighted per-KI and fraction metrics.
    a.llc_apki += w * p.llc_apki;
    a.llc_mpki += w * j.llc_mpki;
    a.llc_miss_ratio += w * j.llc_miss_ratio;
    a.l1d_mpki += w * (1.2 * p.llc_apki + 0.8 * p.branch_mpki +
                       0.2 * std::sqrt(p.working_set_mb));
    a.l1i_mpki += w * p.l1i_mpki;
    a.tlb_mpki += w * 0.04 * std::pow(p.working_set_mb, 0.7);
    a.branch_mpki += w * p.branch_mpki;
    a.load_pki += w * (250.0 + 2.0 * p.llc_apki + 40.0 * p.fp_fraction);
    a.store_pki += w * (100.0 + 30.0 * (1.0 - p.fp_fraction) + 12.0 * p.branch_mpki);
    a.eff_mem_latency_ns += w * j.effective_mem_latency_ns;
    a.td_fe += w * j.td_frontend;
    a.td_bs += w * j.td_bad_speculation;
    a.td_ret += w * j.td_retiring;
    a.td_mem += w * j.td_backend_mem;
    a.td_core += w * j.td_backend_core;
    a.alu_util += w * j.td_retiring * (1.0 - p.fp_fraction);
    a.fp_util += w * j.td_retiring * p.fp_fraction;
    a.spin += w * p.spin_fraction;
    a.uops_per_instr += w * (1.05 + 0.5 * p.fp_fraction + 0.02 * p.branch_mpki);
    a.prefetch_pki += w * (0.3 * p.llc_apki * p.mlp);
    a.br_mispred_ratio += w * (p.branch_mpki / (90.0 + 60.0 * p.base_cpi));
    // Interactive services context-switch on request boundaries; batch pins.
    a.context_switches += n * (p.network_mbps * 1.2 + p.disk_iops * 0.4 +
                               1600.0 * (1.0 - p.cpu_utilization) *
                                   static_cast<double>(p.vcpus));
    instr_weight += w;
  }

  if (instr_weight > 0.0) {
    for (double* field :
         {&a.llc_apki, &a.llc_mpki, &a.llc_miss_ratio, &a.l1d_mpki, &a.l1i_mpki,
          &a.tlb_mpki, &a.branch_mpki, &a.load_pki, &a.store_pki,
          &a.eff_mem_latency_ns, &a.td_fe, &a.td_bs, &a.td_ret, &a.td_mem,
          &a.td_core, &a.alu_util, &a.fp_util, &a.spin, &a.uops_per_instr,
          &a.prefetch_pki, &a.br_mispred_ratio}) {
      *field /= instr_weight;
    }
  }
  return a;
}

// Slots of the fixed array of produced values. The per-level counters occupy
// one block per level (Machine, then HP), the machine-only counters and the
// per-job mix occupancy follow. Names are resolved against these tables once,
// when a CounterPlan is compiled; synthesis itself only indexes.

/// Counters produced at both levels, in `kLevelCounterNames` order.
enum LevelCounter : std::uint16_t {
  kMips, kIpc, kCpi, kInstrPerSec, kCyclesPerSec, kLlcApki, kLlcMpki,
  kLlcMissRatio, kLlcHitRatio, kLlcMissesPerSec, kLlcAccessesPerSec,
  kLlcOccupancyMb, kL2Mpki, kL1dMpki, kL1iMpki, kTlbMpki, kBranchMpki,
  kBranchMispredRatio, kLoadPki, kStorePki, kMemBwGbps, kMemBwBytesPerSec,
  kMemReadBwGbps, kMemWriteBwGbps, kEffMemLatencyNs, kDramUsedGb,
  kTdFrontendBound, kTdBadSpeculation, kTdRetiring, kTdBackendBound,
  kTdBackendMem, kTdBackendCore, kCpuUtilFrac, kVcpusBusy, kAluUtilFrac,
  kFpUtilFrac, kSpinFrac, kNetworkMbps, kDiskIops, kIoWaitFrac,
  kContextSwitchesPerSec, kPageFaultsPerSec, kIrqPerSec, kSoftIrqPerSec,
  kRunQueueLen, kUopsPerInstr, kAvgLoadLatencyCycles, kPrefetchPerKi,
  kStallCycleFrac, kDispatchStallFrac, kMemQueueOccupancy, kKernelTimeFrac,
  kUserTimeFrac,
  kNumLevelCounters,
};

constexpr std::string_view kLevelCounterNames[kNumLevelCounters] = {
    "MIPS", "IPC", "CPI", "InstrPerSec", "CyclesPerSec", "LLC_APKI", "LLC_MPKI",
    "LLC_MissRatio", "LLC_HitRatio", "LLC_MissesPerSec", "LLC_AccessesPerSec",
    "LLC_Occupancy_MB", "L2_MPKI", "L1D_MPKI", "L1I_MPKI", "TLB_MPKI",
    "Branch_MPKI", "BranchMispredRatio", "LoadPKI", "StorePKI", "MemBW_GBps",
    "MemBW_BytesPerSec", "MemReadBW_GBps", "MemWriteBW_GBps",
    "EffMemLatency_ns", "DRAM_Used_GB", "TD_FrontendBound",
    "TD_BadSpeculation", "TD_Retiring", "TD_BackendBound", "TD_BackendMem",
    "TD_BackendCore", "CPU_UtilFrac", "VCPUsBusy", "ALU_UtilFrac",
    "FP_UtilFrac", "SpinFrac", "Network_Mbps", "Disk_IOPS", "IOWaitFrac",
    "ContextSwitchesPerSec", "PageFaultsPerSec", "IRQPerSec", "SoftIRQPerSec",
    "RunQueueLen", "UopsPerInstr", "AvgLoadLatency_cycles", "PrefetchPerKI",
    "StallCycleFrac", "DispatchStallFrac", "MemQueueOccupancy",
    "KernelTimeFrac", "UserTimeFrac",
};

/// Counters produced at machine scope only, in `kMachineCounterNames` order.
enum MachineCounter : std::uint16_t {
  kTotalOccupancyVcpu, kHpOccupancyVcpu, kLpOccupancyVcpu, kFreeVcpus,
  kNumContainers, kNumHpContainers, kNumLpContainers, kDramUtilFrac,
  kMemBwUtilFrac, kMemLatencyMultiplier, kNetworkUtilFrac, kFreqGhz,
  kSmtSharedFrac, kPowerW, kTemperatureC, kFanSpeedRpm,
  kNumMachineCounters,
};

constexpr std::string_view kMachineCounterNames[kNumMachineCounters] = {
    "TotalOccupancy_vCPU", "HPOccupancy_vCPU", "LPOccupancy_vCPU", "FreeVCPUs",
    "NumContainers", "NumHPContainers", "NumLPContainers", "DRAM_UtilFrac",
    "MemBW_UtilFrac", "MemLatencyMultiplier", "NetworkUtilFrac", "Freq_GHz",
    "SMTSharedFrac", "Power_W", "Temperature_C", "FanSpeed_RPM",
};

constexpr std::size_t kMachineLevelSlots = 0;
constexpr std::size_t kHpLevelSlots = kMachineLevelSlots + kNumLevelCounters;
constexpr std::size_t kMachineSlots = kHpLevelSlots + kNumLevelCounters;
constexpr std::size_t kMixSlots = kMachineSlots + kNumMachineCounters;
constexpr std::size_t kNumSlots = kMixSlots + kNumJobTypes;

using ProducedValues = std::array<double, kNumSlots>;

/// Fully qualified metric name -> slot, recorded once per process.
const std::unordered_map<std::string, std::uint16_t>& slot_by_name() {
  static const std::unordered_map<std::string, std::uint16_t> kSlots = [] {
    std::unordered_map<std::string, std::uint16_t> slots;
    const auto add = [&](std::string name, std::size_t slot) {
      slots.emplace(std::move(name), static_cast<std::uint16_t>(slot));
    };
    for (std::size_t c = 0; c < kNumLevelCounters; ++c) {
      add("Machine." + std::string(kLevelCounterNames[c]), kMachineLevelSlots + c);
      add("HP." + std::string(kLevelCounterNames[c]), kHpLevelSlots + c);
    }
    for (std::size_t c = 0; c < kNumMachineCounters; ++c) {
      add("Machine." + std::string(kMachineCounterNames[c]), kMachineSlots + c);
    }
    // Per-job mix occupancy (consumed only by the opt-in §5.3 schema
    // standard_with_job_mix()).
    for (const JobType type : all_job_types()) {
      add("Machine.Mix_" + std::string(job_code(type)) + "_Instances",
          kMixSlots + job_index(type));
    }
    return slots;
  }();
  return kSlots;
}

/// Writes the per-level counters for one level into `out[0, kNumLevelCounters)`.
void fill_level(const LevelAggregate& a, const ScenarioPerformance& perf,
                const MachineConfig& machine, double* out) {
  const double instr_per_sec = a.mips * 1e6;
  const double ipc = a.cycles_per_sec > 0.0 ? instr_per_sec / a.cycles_per_sec : 0.0;

  out[kMips] = a.mips;
  out[kIpc] = ipc;
  out[kCpi] = ipc > 0.0 ? 1.0 / ipc : 0.0;
  out[kInstrPerSec] = instr_per_sec;
  out[kCyclesPerSec] = a.cycles_per_sec;
  out[kLlcApki] = a.llc_apki;
  out[kLlcMpki] = a.llc_mpki;
  out[kLlcMissRatio] = a.llc_miss_ratio;
  out[kLlcHitRatio] = 1.0 - a.llc_miss_ratio;
  out[kLlcMissesPerSec] = instr_per_sec * a.llc_mpki / 1000.0;
  out[kLlcAccessesPerSec] = instr_per_sec * a.llc_apki / 1000.0;
  out[kLlcOccupancyMb] = a.llc_occupancy_mb;
  out[kL2Mpki] = 1.15 * a.llc_apki;
  out[kL1dMpki] = a.l1d_mpki;
  out[kL1iMpki] = a.l1i_mpki;
  out[kTlbMpki] = a.tlb_mpki;
  out[kBranchMpki] = a.branch_mpki;
  out[kBranchMispredRatio] = a.br_mispred_ratio;
  out[kLoadPki] = a.load_pki;
  out[kStorePki] = a.store_pki;
  out[kMemBwGbps] = a.mem_bw_gbps;
  out[kMemBwBytesPerSec] = a.mem_bw_gbps * 1e9;
  out[kMemReadBwGbps] = 0.7 * a.mem_bw_gbps;
  out[kMemWriteBwGbps] = 0.3 * a.mem_bw_gbps;
  out[kEffMemLatencyNs] = a.eff_mem_latency_ns;
  out[kDramUsedGb] = a.dram_gb;
  out[kTdFrontendBound] = a.td_fe;
  out[kTdBadSpeculation] = a.td_bs;
  out[kTdRetiring] = a.td_ret;
  out[kTdBackendBound] = a.td_mem + a.td_core;
  out[kTdBackendMem] = a.td_mem;
  out[kTdBackendCore] = a.td_core;
  out[kCpuUtilFrac] =
      a.busy_threads / static_cast<double>(machine.scheduling_vcpus());
  out[kVcpusBusy] = a.busy_threads;
  out[kAluUtilFrac] = a.alu_util;
  out[kFpUtilFrac] = a.fp_util;
  out[kSpinFrac] = a.spin;
  out[kNetworkMbps] = a.network_mbps;
  out[kDiskIops] = a.disk_iops;
  out[kIoWaitFrac] = a.disk_iops / (machine.disk_kiops * 1000.0);

  // /proc-style system counters.
  const double oversub = std::max(
      perf.busy_threads / static_cast<double>(machine.hardware_threads()) - 1.0, 0.0);
  out[kContextSwitchesPerSec] =
      a.context_switches + 3000.0 * oversub * a.busy_threads;
  out[kPageFaultsPerSec] = a.dram_gb * 25.0;
  const double irq = a.network_mbps * 12.0 + a.disk_iops * 1.5;
  out[kIrqPerSec] = irq;
  out[kSoftIrqPerSec] = 0.6 * irq;
  out[kRunQueueLen] =
      std::max(perf.busy_threads - static_cast<double>(machine.hardware_threads()),
               0.0) *
      (perf.busy_threads > 0.0 ? a.busy_threads / perf.busy_threads : 0.0);

  out[kUopsPerInstr] = a.uops_per_instr;
  out[kAvgLoadLatencyCycles] =
      4.0 + a.eff_mem_latency_ns * machine.max_freq_ghz * a.llc_miss_ratio;
  out[kPrefetchPerKi] = a.prefetch_pki;
  out[kStallCycleFrac] = 1.0 - a.td_ret;
  out[kDispatchStallFrac] = 0.05 + 0.8 * a.td_core;
  out[kMemQueueOccupancy] = a.mem_bw_gbps / machine.total_mem_bw_gbps() *
                            perf.mem_latency_multiplier * 24.0;
  const double kernel =
      0.015 + (a.network_mbps * 0.9 + a.disk_iops * 0.35) /
                  (a.busy_threads * 3000.0 + 1.0);
  out[kKernelTimeFrac] = kernel;
  out[kUserTimeFrac] = a.busy_threads /
                       static_cast<double>(machine.scheduling_vcpus()) *
                       (1.0 - kernel);
}

/// Every counter the synthesizer produces, by slot.
void produce(const ScenarioPerformance& perf, const JobCatalog& catalog,
             ProducedValues& values) {
  const MachineConfig& machine = perf.machine;
  const LevelAggregate machine_agg = aggregate(perf, catalog, machine, false);
  const LevelAggregate hp_agg = aggregate(perf, catalog, machine, true);
  fill_level(machine_agg, perf, machine, values.data() + kMachineLevelSlots);
  fill_level(hp_agg, perf, machine, values.data() + kHpLevelSlots);

  // Machine-only metrics.
  double* out = values.data() + kMachineSlots;
  const double total_vcpu = static_cast<double>(perf.mix.vcpus());
  const double hp_vcpu = static_cast<double>(perf.mix.hp_vcpus());
  out[kTotalOccupancyVcpu] = total_vcpu;
  out[kHpOccupancyVcpu] = hp_vcpu;
  out[kLpOccupancyVcpu] = total_vcpu - hp_vcpu;
  out[kFreeVcpus] = static_cast<double>(machine.scheduling_vcpus()) - total_vcpu;
  out[kNumContainers] = static_cast<double>(perf.mix.total_instances());
  out[kNumHpContainers] = static_cast<double>(perf.mix.hp_instances());
  out[kNumLpContainers] = static_cast<double>(perf.mix.lp_instances());
  out[kDramUtilFrac] = machine_agg.dram_gb / machine.dram_gb;
  out[kMemBwUtilFrac] = perf.mem_bw_utilization;
  out[kMemLatencyMultiplier] = perf.mem_latency_multiplier;
  out[kNetworkUtilFrac] = perf.network_utilization;
  out[kFreqGhz] = machine.max_freq_ghz;
  const double cores = static_cast<double>(machine.total_cores());
  out[kSmtSharedFrac] =
      machine.smt_enabled && perf.busy_threads > cores
          ? std::min(2.0 * (perf.busy_threads - cores) / perf.busy_threads, 1.0)
          : 0.0;
  const double power = 75.0 + 145.0 * perf.cpu_utilization +
                       28.0 * std::min(perf.mem_bw_utilization, 1.2) +
                       0.3 * perf.llc_used_mb;
  out[kPowerW] = power;
  const double temperature = 34.0 + 0.11 * power;
  out[kTemperatureC] = temperature;
  out[kFanSpeedRpm] = 1800.0 + 42.0 * temperature;

  for (std::size_t j = 0; j < kNumJobTypes; ++j) {
    values[kMixSlots + j] = static_cast<double>(perf.mix.instances[j]);
  }
}

constexpr std::size_t kNumCategories = 8;
constexpr std::size_t kNumLevels = 2;

}  // namespace

CounterPlan::CounterPlan(const metrics::MetricCatalog& schema,
                         CounterOptions options)
    : options_(options),
      subgroup_count_(
          static_cast<std::size_t>(std::max(options.subgroup_count, 1))) {
  const auto& slots = slot_by_name();
  columns_.reserve(schema.size());
  for (const metrics::MetricInfo& info : schema.metrics()) {
    const auto it = slots.find(info.name);
    if (it == slots.end()) {
      throw SchemaError("CounterPlan: schema metric not produced: " + info.name);
    }
    Column column;
    column.slot = it->second;
    column.family = static_cast<std::uint8_t>(
        (info.level == metrics::MetricLevel::kHpJobs ? 1 : 0) * kNumCategories +
        static_cast<std::size_t>(info.category));
    column.noisy = options.enable_noise &&
                   info.category != metrics::MetricCategory::kOccupancy;
    column.subgroup =
        static_cast<std::uint32_t>(util::fnv1a(info.base_name) % subgroup_count_);
    columns_.push_back(column);
  }
}

std::vector<double> synthesize_counters(const ScenarioPerformance& perf,
                                        const JobCatalog& catalog,
                                        const CounterPlan& plan,
                                        std::uint64_t noise_stream) {
  const CounterOptions& options = plan.options();
  ProducedValues values{};
  produce(perf, catalog, values);

  // Order per the schema and overlay measurement noise. Structural
  // occupancy counts stay exact — a real monitor reads them losslessly.
  stats::Rng rng(util::hash_mix(
      perf.mix.key_hash(util::fnv1a(perf.machine.name, 0xC0117E45u)),
      noise_stream));

  // One jitter factor per metric family (shared by the Machine and HP views
  // of the family — they observe the same underlying phase behaviour).
  double family_factor[kNumLevels * kNumCategories];
  for (std::size_t cat = 0; cat < kNumCategories; ++cat) {
    const bool jitter = options.enable_noise && options.family_jitter_sigma > 0.0;
    // Shared phase component (both views observe the same machine) plus a
    // level-specific component (HP-only phases vs the whole-machine blend).
    const double shared = jitter ? options.family_jitter_sigma * rng.normal() : 0.0;
    for (std::size_t lvl = 0; lvl < kNumLevels; ++lvl) {
      const double own =
          jitter ? 0.6 * options.family_jitter_sigma * rng.normal() : 0.0;
      family_factor[lvl * kNumCategories + cat] = std::exp(shared + own);
    }
  }

  // Sub-family latents, keyed by base metric name so the Machine and HP
  // views of a counter share the same latent (preserving their correlation).
  std::vector<double> subgroup_factor(plan.subgroup_count(), 1.0);
  if (options.enable_noise && options.subgroup_jitter_sigma > 0.0) {
    for (double& f : subgroup_factor) {
      f = std::exp(options.subgroup_jitter_sigma * rng.normal());
    }
  }

  std::vector<double> row(plan.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    const CounterPlan::Column& column = plan.column(i);
    double v = values[column.slot];
    if (column.noisy) {
      v *= family_factor[column.family];
      v *= subgroup_factor[column.subgroup];
      if (options.measurement_noise_sigma > 0.0) {
        v *= std::exp(options.measurement_noise_sigma * rng.normal());
      }
    }
    row[i] = v;
  }
  return row;
}

std::vector<double> synthesize_counters(const ScenarioPerformance& perf,
                                        const JobCatalog& catalog,
                                        const metrics::MetricCatalog& schema,
                                        CounterOptions options,
                                        std::uint64_t noise_stream) {
  return synthesize_counters(perf, catalog, CounterPlan(schema, options),
                             noise_stream);
}

FaultOptions FaultOptions::uniform(double rate, std::uint64_t seed) {
  ensure(rate >= 0.0 && rate <= 1.0,
         "FaultOptions::uniform: rate must be in [0, 1]");
  FaultOptions options;
  options.enabled = rate > 0.0;
  options.nan_rate = rate;
  options.stuck_rate = rate;
  options.multiplex_rate = rate;
  options.sample_drop_rate = rate;
  options.row_loss_rate = rate;
  options.seed = seed;
  return options;
}

CounterFaultModel::CounterFaultModel(FaultOptions options)
    : options_(options) {
  const auto valid_rate = [](double r) { return r >= 0.0 && r <= 1.0; };
  ensure(valid_rate(options_.nan_rate) && valid_rate(options_.stuck_rate) &&
             valid_rate(options_.multiplex_rate) &&
             valid_rate(options_.sample_drop_rate) &&
             valid_rate(options_.row_loss_rate),
         "CounterFaultModel: fault rates must be in [0, 1]");
  ensure(options_.nan_rate + options_.stuck_rate + options_.multiplex_rate <=
             1.0,
         "CounterFaultModel: per-reading fault rates must sum to <= 1");
  ensure(options_.multiplex_sigma >= 0.0,
         "CounterFaultModel: multiplex_sigma must be non-negative");
  active_ = options_.enabled &&
            (options_.nan_rate > 0.0 || options_.stuck_rate > 0.0 ||
             options_.multiplex_rate > 0.0 || options_.sample_drop_rate > 0.0 ||
             options_.row_loss_rate > 0.0);
}

std::uint64_t CounterFaultModel::stream(std::string_view scenario_key,
                                        std::uint64_t salt) const {
  return util::derive_stream(scenario_key, options_.seed, salt);
}

bool CounterFaultModel::lose_row(std::string_view scenario_key) const {
  if (!active_ || options_.row_loss_rate <= 0.0) return false;
  stats::Rng rng(stream(scenario_key, 0xB01DFACEull));
  return rng.uniform() < options_.row_loss_rate;
}

bool CounterFaultModel::drop_sample(std::string_view scenario_key,
                                    int sample_index, int attempt) const {
  if (!active_ || options_.sample_drop_rate <= 0.0) return false;
  stats::Rng rng(stream(scenario_key,
                        0xD80Dull + 7919ull * static_cast<std::uint64_t>(
                                                  sample_index) +
                            static_cast<std::uint64_t>(attempt)));
  return rng.uniform() < options_.sample_drop_rate;
}

void CounterFaultModel::corrupt(std::vector<double>& sample,
                                const std::vector<double>& last_observed,
                                std::string_view scenario_key, int sample_index,
                                int attempt) const {
  if (!active_) return;
  const double glitch_rate =
      options_.nan_rate + options_.stuck_rate + options_.multiplex_rate;
  if (glitch_rate <= 0.0) return;
  ensure(last_observed.empty() || last_observed.size() == sample.size(),
         "CounterFaultModel::corrupt: last_observed size mismatch");
  stats::Rng rng(stream(scenario_key,
                        0xC0FEull + 104729ull * static_cast<std::uint64_t>(
                                                    sample_index) +
                            static_cast<std::uint64_t>(attempt)));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    // One uniform draw per metric partitioned across the fault classes keeps
    // the stream layout stable when individual rates change.
    const double u = rng.uniform();
    const double flavour = rng.uniform();
    if (u < options_.nan_rate) {
      sample[i] = flavour < 0.5
                      ? std::numeric_limits<double>::quiet_NaN()
                      : (flavour < 0.75
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity());
    } else if (u < options_.nan_rate + options_.stuck_rate) {
      if (!last_observed.empty() && std::isfinite(last_observed[i])) {
        sample[i] = last_observed[i];
      }
    } else if (u < glitch_rate) {
      sample[i] *= std::exp(options_.multiplex_sigma *
                            (2.0 * flavour - 1.0) * 1.7320508075688772);
    }
  }
}

}  // namespace flare::dcsim

// In-process workloads: paper_autok and fleet_10x — a cold fit, then a
// stationary stream ingested on the cheap path (RefitPolicy::kNever, so the
// stream never triggers a refit). Both run the same round:
//
//   set-up   load the base trace CSV, construct the pipeline  -> setup_s
//   cold     fit, then validated estimates of the Table-4
//            features                                          -> tte_s
//   steady   for each stream batch: ingest, then validated
//            estimates of the three features                   -> ingest_ms,
//                                                                 eval_ms
//
// Every round replays the same inputs, so rounds are interchangeable samples
// and per-round counts are deterministic. The first round is a warm-up: its
// timings are dropped, its outputs are checked against ground truth.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "core/pipeline.hpp"
#include "core/sharded_pipeline.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "trace/scenario_io.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = flare::core;
namespace dcsim = flare::dcsim;

namespace {

/// What the checks and metrics need from one validated estimate.
struct EstimateView {
  double impact = 0.0;
  double band = 0.0;
  double ledger_mass = 0.0;
  double weight_sum = 0.0;  ///< cluster weights, or shard fan-in weights
  std::size_t replays = 0;
  std::string exact;  ///< bit-exact rendering, for determinism checks
};

EstimateView view(const core::ValidatedFeatureEstimate& v) {
  EstimateView out{v.estimate.impact_pct, v.uncertainty_pp,
                   v.estimate.replay.total_mass(), 0.0,
                   v.estimate.scenario_replays, ""};
  for (const core::ClusterImpact& c : v.estimate.per_cluster) {
    out.weight_sum += c.weight;
  }
  out.exact = flare::util::format_double_exact(out.impact) + "±" +
              flare::util::format_double_exact(out.band);
  return out;
}

EstimateView view(const core::ValidatedFleetEstimate& v) {
  EstimateView out{v.estimate.impact_pct, v.uncertainty_pp,
                   v.estimate.replay.total_mass(), 0.0,
                   v.estimate.scenario_replays, ""};
  for (const core::ShardValidatedEstimate& s : v.per_shape) {
    out.weight_sum += s.weight;
  }
  out.exact = flare::util::format_double_exact(out.impact) + "±" +
              flare::util::format_double_exact(out.band);
  return out;
}

/// Ingest telemetry of one batch, summed over shards.
struct IngestView {
  core::DriftVerdict action = core::DriftVerdict::kValid;  ///< max over shards
  double valid = 0, reweight = 0, refit = 0, incremental = 0, suppressed = 0,
         quarantined = 0;
  std::size_t appended = 0;
};

void accumulate(IngestView& out, const core::IngestReport& r) {
  out.action = std::max(out.action, r.action);
  out.valid += r.action == core::DriftVerdict::kValid;
  out.reweight += r.action == core::DriftVerdict::kReweight;
  out.refit += r.action == core::DriftVerdict::kRefit;
  out.incremental += r.pca_incremental_refit;
  out.suppressed += r.response.refit_suppressed;
  out.quarantined += static_cast<double>(r.response.episode_rows +
                                         r.rows_quarantined);
  out.appended += r.appended;
}

IngestView view(const core::IngestReport& r) {
  IngestView out;
  accumulate(out, r);
  return out;
}

IngestView view(const core::FleetIngestReport& r) {
  IngestView out;
  for (const auto& shard : r.per_shape) {
    if (shard) accumulate(out, *shard);
  }
  out.appended = r.appended;
  return out;
}

std::size_t rows(const core::FlarePipeline& p) { return p.scenario_set().size(); }
std::size_t rows(const core::ShardedPipeline& p) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < p.num_shards(); ++i) n += rows(p.shard(i));
  return n;
}

std::size_t stage_total(const core::FlarePipeline& p) {
  return p.analysis().stage_counters.total();
}
std::size_t stage_total(const core::ShardedPipeline& p) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < p.num_shards(); ++i) n += stage_total(p.shard(i));
  return n;
}

/// Full-datacenter ground truth for a fitted population (fan-in weighted
/// over shards for the fleet), computed outside every timed region.
double truth(const core::FlarePipeline& p, const core::Feature& feature) {
  const flare::baselines::FullDatacenterEvaluator full(p.impact_model(),
                                                       p.scenario_set());
  return full.evaluate(feature).impact_pct;
}
double truth(const core::ShardedPipeline& p, const core::Feature& feature) {
  const std::vector<double> weights = p.weights();
  double total = 0.0;
  for (std::size_t i = 0; i < p.num_shards(); ++i) {
    total += weights[i] * truth(p.shard(i), feature);
  }
  return total;
}

std::vector<const core::FlarePipeline*> shards_of(const core::FlarePipeline& p) {
  return {&p};
}
std::vector<const core::FlarePipeline*> shards_of(const core::ShardedPipeline& p) {
  std::vector<const core::FlarePipeline*> out;
  for (std::size_t i = 0; i < p.num_shards(); ++i) out.push_back(&p.shard(i));
  return out;
}

template <class Pipeline, class Config>
struct Spec {
  std::string trace_path;
  std::vector<std::string> valid_shapes;  ///< non-empty: shape-tagged trace
  Config config;
  std::vector<dcsim::ScenarioSet> stream;
  int setup_reps = 1;         ///< set-ups per round (cheap set-ups repeat)
};

template <class Pipeline, class Config>
class PipelineWorkload {
 public:
  PipelineWorkload(Spec<Pipeline, Config> spec, RunResult& result)
      : spec_(std::move(spec)), result_(result), features_(table4_features()) {
    stream_rows_ = total_rows(spec_.stream);
  }

  /// One measured pass: a warm-up round, then rounds until `budget` is met.
  Pass run_pass(const RoundBudget& budget, bool traced) {
    Pass pass;
    pass.replayed = {"eval_ms", "ingest_ms"};
    Tracer tracer(traced);
    const Clock::time_point start = Clock::now();
    round(pass, tracer, /*warmup=*/true);
    while (!budget.done(pass, seconds_since(start))) {
      round(pass, tracer, /*warmup=*/false);
    }
    if (traced) {
      // Workloads that never reweight or refit still report both series.
      result_.layer_samples["ingest.reweight_ms"];
      result_.layer_samples["ingest.refit_ms"];
    }
    return pass;
  }

  /// Per-layer walk over a freshly fitted base population.
  void walk(int reps) {
    std::unique_ptr<Pipeline> fitted = std::make_unique<Pipeline>(spec_.config);
    const dcsim::ScenarioSet set = load();
    fitted->fit(set);
    LayerWalk walk;
    walk.shards = shards_of(*fitted);
    walk.load_trace = [this] { (void)load(); };
    if constexpr (std::is_same_v<Pipeline, core::ShardedPipeline>) {
      walk.fit_fleet = [this, &set] {
        Pipeline pipeline(spec_.config);
        pipeline.fit(set);
      };
    }
    walk_layers(walk, reps, result_);
    for (const auto& [name, value] : result_.det.counts) {
      result_.layer_values[name] = value;
    }
  }

 private:
  dcsim::ScenarioSet load() const {
    return spec_.valid_shapes.empty()
               ? flare::trace::load_scenario_set(spec_.trace_path)
               : flare::trace::load_scenario_set(spec_.trace_path,
                                                 spec_.valid_shapes);
  }

  void round(Pass& pass, Tracer& tracer, bool warmup) {
    try {
      run_round(pass, tracer, warmup);
    } catch (const std::exception& e) {
      ++pass.failed;
      result_.checks.expect(false, std::string("operation threw: ") + e.what());
    }
  }

  void run_round(Pass& pass, Tracer& tracer, bool warmup) {
    Round measured;
    reset_peak_rss();
    const Clock::time_point r0 = Clock::now();
    // --- set-up ----------------------------------------------------------
    std::unique_ptr<Pipeline> pipeline;
    dcsim::ScenarioSet set;
    for (int rep = 0; rep < spec_.setup_reps; ++rep) {
      // Tear the previous set-up down outside the timed region.
      pipeline.reset();
      set = {};
      Tracer::Scope setup_span(tracer, "setup");
      const Clock::time_point t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "trace.load");
        set = load();
      }
      {
        Tracer::Scope span(tracer, "pipeline.construct");
        pipeline = std::make_unique<Pipeline>(spec_.config);
      }
      measured.add("setup_s", seconds_since(t0));
    }

    // --- cold: fit + validated estimates of the three features ----------
    ++pass.attempted;  // the fit
    const Clock::time_point f0 = Clock::now();
    {
      Tracer::Scope span(tracer, "pipeline.fit");
      pipeline->fit(set);
    }
    std::vector<EstimateView> cold;
    for (const core::Feature& feature : features_) {
      Tracer::Scope span(tracer, "estimate");
      cold.push_back(view(pipeline->evaluate_with_validation(feature)));
    }
    measured.add("tte_s", seconds_since(f0));
    pass.attempted += cold.size();
    check_cold(*pipeline, cold, pass);
    const std::size_t fitted_stages = stage_total(*pipeline);

    // --- steady: ingest + validated estimates of the features per batch --
    IngestView totals;
    const Clock::time_point w0 = Clock::now();
    for (std::size_t b = 0; b < spec_.stream.size(); ++b) {
      const dcsim::ScenarioSet& batch = spec_.stream[b];
      Clock::time_point t0 = Clock::now();
      IngestView ingested;
      {
        Tracer::Scope span(tracer, "ingest");
        ingested = view(pipeline->ingest(batch, core::RefitPolicy::kNever));
      }
      const double ingest_ms = ms_since(t0);
      t0 = Clock::now();
      std::vector<EstimateView> estimates;
      {
        Tracer::Scope span(tracer, "evaluate");
        for (const core::Feature& feature : features_) {
          estimates.push_back(view(pipeline->evaluate_with_validation(feature)));
        }
      }
      const double eval_ms = ms_since(t0);
      pass.attempted += 2;
      bool ok_eval = true;
      for (const EstimateView& estimate : estimates) {
        ok_eval = check_estimate(estimate, "steady estimate") && ok_eval;
      }
      const bool ok_ingest = result_.checks.expect(
          ingested.appended == batch.size(),
          "ingest appended a different row count than the batch holds");
      pass.failed += !ok_ingest + !ok_eval;
      accumulate_counts(totals, ingested);
      if (tracer.enabled()) {
        if (ingested.action == core::DriftVerdict::kReweight) {
          result_.layer_samples["ingest.reweight_ms"].push_back(ingest_ms);
        } else if (ingested.action == core::DriftVerdict::kRefit) {
          result_.layer_samples["ingest.refit_ms"].push_back(ingest_ms);
        }
      }
      measured.add("ingest_ms", ingest_ms);
      measured.add("eval_ms", eval_ms);
    }
    measured.steady_wall_s = seconds_since(w0);
    measured.steady_ops = 2 * spec_.stream.size();
    measured.ingest_rows = stream_rows_;
    measured.wall_s = seconds_since(r0);
    measured.peak_rss_mb = peak_rss_mb();
    if (!warmup) pass.rounds.push_back(std::move(measured));
    result_.checks.expect(rows(*pipeline) == set.size() + stream_rows_,
                          "population size after the stream is wrong");
    record_counts(totals, stage_total(*pipeline) - fitted_stages);
  }

  /// Ledger mass and weights of any estimate; false on a failed check. The
  /// replay count is checked on cold estimates only: the pipeline bills a
  /// (scenario, feature) pair once, so warm repeats add no new replays.
  bool check_estimate(const EstimateView& e, const std::string& what) {
    bool ok = result_.checks.expect(std::abs(e.ledger_mass - 1.0) <= 1e-9,
                                    what + ": replay ledger mass != 1");
    ok = result_.checks.expect(std::abs(e.weight_sum - 1.0) <= 1e-9,
                               what + ": weights do not sum to 1") && ok;
    ok = result_.checks.expect(std::isfinite(e.impact) && e.band >= 0.0,
                               what + ": malformed estimate") && ok;
    return ok;
  }

  /// The cold estimates: truth and band on the first round, bit-identical
  /// repeats after it.
  void check_cold(const Pipeline& pipeline, const std::vector<EstimateView>& cold,
                  Pass& pass) {
    const bool first = cold_exact_.empty();
    double worst = 0.0;
    double replays = 0.0;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      const EstimateView& e = cold[i];
      bool ok = check_estimate(e, "cold estimate");
      ok = result_.checks.expect(e.replays > 0, "cold estimate replayed nothing") &&
           ok;
      if (first) {
        const double error = std::abs(e.impact - truth(pipeline, features_[i]));
        ok = result_.checks.expect(
                 error <= e.band || error < 1.0,
                 features_[i].name() + ": estimate misses truth by " +
                     std::to_string(error) + " pp, band " +
                     std::to_string(e.band)) && ok;
        worst = std::max(worst, error);
        replays += static_cast<double>(e.replays);
        cold_exact_.push_back(e.exact);
      } else {
        ok = result_.checks.expect(e.exact == cold_exact_[i],
                                   features_[i].name() +
                                       ": cold estimate differs between rounds") &&
             ok;
      }
      pass.failed += !ok;
    }
    if (first) {
      result_.det.estimate_error_pp = worst;
      result_.det.replay_cost_ratio =
          static_cast<double>(rows(pipeline)) /
          (replays / static_cast<double>(cold.size()));
    }
  }

  static void accumulate_counts(IngestView& totals, const IngestView& b) {
    totals.valid += b.valid;
    totals.reweight += b.reweight;
    totals.refit += b.refit;
    totals.incremental += b.incremental;
    totals.suppressed += b.suppressed;
    totals.quarantined += b.quarantined;
  }

  /// Ingest counts of one round; every round must repeat the first.
  void record_counts(const IngestView& t, std::size_t stage_recomputes) {
    const double actions = t.valid + t.reweight + t.refit;
    const std::map<std::string, double> counts = {
        {"ingest.valid", t.valid},
        {"ingest.reweight", t.reweight},
        {"ingest.refit", t.refit},
        {"ingest.incremental_refit", t.incremental},
        {"ingest.refits_suppressed", t.suppressed},
        {"ingest.quarantined_rows", t.quarantined},
        {"ingest.cheap_action_ratio",
         actions > 0 ? (t.valid + t.reweight) / actions : 0.0},
        {"ingest.stage_recomputes", static_cast<double>(stage_recomputes)}};
    if (result_.det.counts.empty()) {
      result_.det.counts = counts;
    } else {
      result_.checks.expect(counts == result_.det.counts,
                            "ingest counts differ between identical rounds");
    }
  }

  Spec<Pipeline, Config> spec_;
  RunResult& result_;
  std::vector<core::Feature> features_;
  std::size_t stream_rows_ = 0;
  std::vector<std::string> cold_exact_;
};

/// Plain pass, then (traced runs) a traced pass and the layer walk, each
/// pass on its share of the budget.
template <class Pipeline, class Config>
void run(const RunOptions& options, Spec<Pipeline, Config> spec,
         RunResult& result) {
  PipelineWorkload<Pipeline, Config> workload(std::move(spec), result);
  RoundBudget budget;
  budget.seconds = options.trace ? options.seconds / 2 : options.seconds;
  budget.hard_limit_s = std::max(3 * budget.seconds, 60.0);
  result.plain = workload.run_pass(budget, false);
  if (options.trace) {
    result.traced = workload.run_pass(budget, true);
    workload.walk(3);
    zero_serve_layers(result);
  }
}

}  // namespace

void run_paper_autok(const RunOptions& options, RunResult& result) {
  Spec<core::FlarePipeline, core::FlareConfig> spec;
  spec.trace_path = write_trace(options.run_dir, "paper.csv", paper_trace());
  spec.config.analyzer.fixed_clusters = std::nullopt;  // the Fig. 9 sweep
  spec.config.threads = 1;
  spec.stream = stationary_stream(options.seed, 100, 5);
  spec.setup_reps = 9;
  run(options, std::move(spec), result);
}

void run_fleet_10x(const RunOptions& options, RunResult& result) {
  Spec<core::ShardedPipeline, core::ShardedConfig> spec;
  const dcsim::FleetConfig fleet = fleet_shapes();
  spec.trace_path = write_trace(options.run_dir, "fleet.csv", fleet_trace());
  spec.valid_shapes = fleet.shape_names();
  spec.config.fleet = fleet;
  spec.config.base.analyzer.fixed_clusters = 18;
  spec.config.base.analyzer.compute_quality_curve = false;
  spec.config.shard_threads = 2;
  spec.stream = fleet_stream(options.seed, 100, 1);
  spec.setup_reps = 5;
  run(options, std::move(spec), result);
}

}  // namespace perfbench

#include "layers.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "core/analyzer.hpp"
#include "core/estimator.hpp"
#include "core/profiler.hpp"
#include "core/replayer.hpp"
#include "dcsim/interference_model.hpp"
#include "dcsim/job_catalog.hpp"
#include "dcsim/replay_faults.hpp"
#include "inputs.hpp"
#include "linalg/covariance.hpp"
#include "linalg/eigen.hpp"
#include "ml/cluster_quality.hpp"
#include "ml/kmeans.hpp"

namespace perfbench {

namespace core = flare::core;
namespace stages = flare::core::stages;

namespace {

/// Estimates per feature per walk: enough calls for a per-call median.
constexpr int kEstimateLoops = 3;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The cluster stage's K-means sweep, one ml call per span: the pairwise
/// distance cache and every silhouette score under ml.silhouette, every
/// K-means solve under ml.kmeans. Mirrors stages::cluster on its exact
/// (non-minibatch) path.
void walk_ml(Tracer& tracer, const flare::linalg::Matrix& space,
             const std::vector<double>& weights,
             const core::AnalyzerConfig& config, std::size_t chosen_k,
             std::map<std::string, double>& counts) {
  flare::ml::KMeansParams params = config.kmeans;
  if (config.weight_clustering_by_observation) params.weights = weights;
  const std::size_t n = space.rows();
  const std::size_t k_lo = config.min_clusters;
  const std::size_t k_hi = std::min(config.max_clusters, n - 1);
  const bool sweep = config.compute_quality_curve || !config.fixed_clusters;
  const bool exact = n <= config.silhouette_exact_threshold;
  bool kept = false;
  if (sweep && k_hi >= k_lo) {
    flare::ml::PairwiseDistances distances;
    if (exact) {
      Tracer::Scope span(tracer, "ml.silhouette");
      distances = flare::ml::pairwise_distances(space);
    }
    for (std::size_t k = k_lo; k <= k_hi; ++k) {
      params.k = k;
      flare::ml::KMeansResult result;
      {
        Tracer::Scope span(tracer, "ml.kmeans");
        result = flare::ml::kmeans(space, params);
      }
      counts["ml.kmeans_iterations"] += result.iterations;
      counts["ml.sweep_points"] += 1.0;
      kept = kept || k == chosen_k;
      Tracer::Scope span(tracer, "ml.silhouette");
      if (exact) {
        (void)flare::ml::silhouette_score(distances, result.assignment, k);
      } else {
        (void)flare::ml::silhouette_score_sampled(
            space, result.assignment, k, config.silhouette_sample,
            config.kmeans.seed);
      }
    }
    kept = kept && config.fixed_clusters.has_value();
  }
  if (!kept) {
    params.k = chosen_k;
    flare::ml::KMeansResult result;
    {
      Tracer::Scope span(tracer, "ml.kmeans");
      result = flare::ml::kmeans(space, params);
    }
    counts["ml.kmeans_iterations"] += result.iterations;
  }
}

/// One walk over one fitted pipeline's population.
void walk_shard(Tracer& tracer, const core::FlarePipeline& fitted,
                std::map<std::string, double>& counts, Checks& checks) {
  const core::FlareConfig& config = fitted.config();
  const flare::dcsim::ScenarioSet& set = fitted.scenario_set();
  const flare::dcsim::InterferenceModel model(flare::dcsim::default_job_catalog(),
                                              config.model);
  const core::Profiler profiler(model, config.profiler);

  flare::metrics::MetricDatabase db = [&] {
    Tracer::Scope span(tracer, "profiler.profile");
    return profiler.profile(set, config.machine, core::resolve_schema(config.schema));
  }();
  counts["profiler.rows"] += static_cast<double>(db.num_rows());
  const flare::linalg::Matrix raw = db.to_matrix();
  const std::vector<double> weights = db.weights();

  const stages::RefineOutput refined = [&] {
    Tracer::Scope span(tracer, "analyzer.refine");
    return stages::refine(raw, config.analyzer);
  }();
  const stages::StandardizeOutput standardized = [&] {
    Tracer::Scope span(tracer, "analyzer.standardize");
    return stages::standardize(refined.refined);
  }();
  const stages::PcaOutput pca = [&] {
    Tracer::Scope span(tracer, "analyzer.pca");
    return stages::fit_pca(standardized.standardized, refined.kept_columns,
                           db.catalog(), config.analyzer, nullptr);
  }();
  const stages::WhitenOutput whitened = [&] {
    Tracer::Scope span(tracer, "analyzer.whiten");
    return stages::whiten(pca.pca, pca.num_components,
                          standardized.standardized, config.analyzer);
  }();
  const stages::ClusterOutput clustered = [&] {
    Tracer::Scope span(tracer, "analyzer.cluster");
    return stages::cluster(whitened.cluster_space, weights, config.analyzer,
                           nullptr);
  }();
  const stages::RepresentativesOutput reps = [&] {
    Tracer::Scope span(tracer, "analyzer.representatives");
    return stages::representatives(clustered.clustering, whitened.cluster_space,
                                   clustered.chosen_k, weights, false);
  }();
  checks.expect(reps.representatives == fitted.analysis().representatives &&
                    reps.cluster_weights == fitted.analysis().cluster_weights,
                "layer walk: stage-by-stage analysis differs from the "
                "pipeline's fit");

  walk_ml(tracer, whitened.cluster_space, weights, config.analyzer,
          clustered.chosen_k, counts);

  const flare::linalg::Matrix covariance = [&] {
    Tracer::Scope span(tracer, "linalg.covariance");
    return flare::linalg::covariance_matrix(standardized.standardized);
  }();
  {
    Tracer::Scope span(tracer, "linalg.eigen");
    (void)flare::linalg::symmetric_eigen(covariance);
  }

  const core::ImpactModel impact(config.machine,
                                 flare::dcsim::default_job_catalog(),
                                 config.model);
  core::Replayer replayer(impact, config.replay,
                          flare::dcsim::ReplayFaultModel(config.replay_faults));
  const core::FlareEstimator estimator(fitted.analysis(), set, replayer);
  const std::vector<core::Feature> features = table4_features();
  for (int loop = 0; loop < kEstimateLoops; ++loop) {
    for (const core::Feature& feature : features) {
      Tracer::Scope span(tracer, "estimator.evaluate");
      (void)estimator.estimate_with_validation(feature);
    }
    if (loop == 0) {
      counts["replayer.distinct_replays"] +=
          static_cast<double>(replayer.distinct_scenario_replays());
      counts["replayer.attempts"] += static_cast<double>(replayer.total_replays());
    }
  }

  {
    Tracer::Scope span(tracer, "shard.fit");
    core::FlarePipeline pipeline(config);
    pipeline.fit(set);
  }
}

}  // namespace

void walk_layers(const LayerWalk& walk, int reps, RunResult& result) {
  static const char* const kTimedMs[] = {
      "trace.load",          "analyzer.refine",  "analyzer.standardize",
      "analyzer.pca",        "analyzer.whiten",  "analyzer.cluster",
      "analyzer.representatives", "ml.kmeans",   "ml.silhouette",
      "linalg.covariance",   "linalg.eigen"};
  std::map<std::string, std::vector<double>> per_rep;
  std::map<std::string, double> counts;
  for (int rep = 0; rep < reps; ++rep) {
    Tracer tracer(true);
    std::map<std::string, double> rep_counts;
    {
      Tracer::Scope span(tracer, "trace.load");
      walk.load_trace();
    }
    std::vector<double> shard_fit_s;
    for (const core::FlarePipeline* shard : walk.shards) {
      const double before = tracer.total_seconds("shard.fit");
      walk_shard(tracer, *shard, rep_counts, result.checks);
      shard_fit_s.push_back(tracer.total_seconds("shard.fit") - before);
    }
    if (walk.fit_fleet) {
      Tracer::Scope span(tracer, "fleet.fit");
      walk.fit_fleet();
    }
    if (rep == 0) counts = rep_counts;

    for (const char* name : kTimedMs) {
      per_rep[std::string(name) + "_ms"].push_back(1000.0 *
                                                   tracer.total_seconds(name));
    }
    const double profile_s = tracer.total_seconds("profiler.profile");
    per_rep["profiler.profile_s"].push_back(profile_s);
    per_rep["profiler.us_per_row"].push_back(1e6 * profile_s /
                                             rep_counts["profiler.rows"]);
    // One estimate of the whole population = one call per shard.
    const double estimates = static_cast<double>(kEstimateLoops) *
                             static_cast<double>(table4_features().size());
    per_rep["estimator.evaluate_ms"].push_back(
        1000.0 * tracer.total_seconds("estimator.evaluate") / estimates);
    const double fit_sum = tracer.total_seconds("shard.fit");
    per_rep["shard.fit_s_sum"].push_back(fit_sum);
    per_rep["shard.fit_s_max"].push_back(
        *std::max_element(shard_fit_s.begin(), shard_fit_s.end()));
    per_rep["shard.parallel_speedup"].push_back(
        walk.fit_fleet ? fit_sum / tracer.total_seconds("fleet.fit") : 1.0);
  }
  for (const auto& [name, values] : per_rep) {
    result.layer_values[name] = median(values);
  }
  for (const char* name : {"ml.kmeans_iterations", "ml.sweep_points",
                           "replayer.distinct_replays", "replayer.attempts"}) {
    result.layer_values[name] = counts[name];
  }
}

void zero_ingest_layers(RunResult& result) {
  for (const char* name :
       {"ingest.valid", "ingest.reweight", "ingest.refit",
        "ingest.incremental_refit", "ingest.refits_suppressed",
        "ingest.quarantined_rows", "ingest.cheap_action_ratio",
        "ingest.stage_recomputes"}) {
    result.layer_values[name] = 0.0;
  }
  result.layer_samples["ingest.reweight_ms"];
  result.layer_samples["ingest.refit_ms"];
}

void zero_serve_layers(RunResult& result) {
  for (const char* name :
       {"serve.requests", "serve.ok", "serve.shed", "serve.timeout",
        "serve.failed", "serve.coalesced_groups", "serve.epoch"}) {
    result.layer_values[name] = 0.0;
  }
  for (const char* verb : {"ingest", "evaluate", "report", "status"}) {
    result.layer_samples[std::string("serve.") + verb + "_ms"];
  }
}

}  // namespace perfbench

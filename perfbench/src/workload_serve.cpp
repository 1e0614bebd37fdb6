// serve_mix: an in-process `flare serve` daemon on a Unix socket, driven by
// three closed-loop clients from this process. Each round:
//
//   set-up   daemon construction (recovery + base fit) until it answers
//            status                                            -> setup_s
//   cold     + validated evaluates of the three features       -> tte_s
//   steady   one writer: ingest batch, then status, one at a time
//            (so every ingest is its own coalesced group and the model
//            sequence is the same on every run);
//            reader 0: evaluate --validate, reader 1: report,
//            each sending its next request as soon as the reply
//            arrives, until the writer is done
//                                                               -> ingest_ms,
//                                                                  eval_ms
//   final    one more validated evaluate, the accounting identity, shutdown
//
// The first round's final estimate must be bit-identical to an offline
// FlarePipeline fed the same acknowledged batches; later rounds must repeat
// it exactly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/full_evaluator.hpp"
#include "core/pipeline.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "trace/scenario_io.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = flare::core;
namespace dcsim = flare::dcsim;
namespace serve = flare::serve;

namespace {

constexpr int kBatches = 40;            ///< writer ingests per round
constexpr std::size_t kBatchRows = 15;  ///< rows per ingest batch
const char* const kFeatureSpecs[] = {"feature1", "feature2", "feature3"};

/// What one client thread saw: latencies per verb, failed checks and (traced
/// passes) a span around every request. Owned by its thread until joined.
struct ClientLog {
  explicit ClientLog(bool traced = false) : tracer(traced) {}

  std::map<std::string, std::vector<double>> ms;  ///< verb -> round trips
  std::vector<std::string> failures;
  std::size_t requests = 0;
  Tracer tracer;

  /// Sends one request, times it, and checks the outcome and that epochs
  /// never go backwards on this client. Returns the response.
  serve::ResponseFrame call(serve::ServeClient& client,
                            const serve::RequestFrame& request,
                            const std::string& verb, std::uint64_t& last_epoch) {
    ++requests;
    const Clock::time_point t0 = Clock::now();
    serve::ResponseFrame response;
    try {
      Tracer::Scope span(tracer, "serve." + verb);
      response = client.call(request);
    } catch (const std::exception& e) {
      failures.push_back(verb + " request threw: " + e.what());
      response.outcome = serve::Outcome::kFailed;
      return response;
    }
    ms[verb].push_back(ms_since(t0));
    if (response.outcome != serve::Outcome::kOk) {
      failures.push_back(verb + " answered " +
                         std::string(serve::to_string(response.outcome)) +
                         ": " + response.payload);
    }
    if (response.epoch < last_epoch) {
      failures.push_back(verb + ": epoch went backwards");
    }
    last_epoch = response.epoch;
    return response;
  }
};

std::string kv(const serve::ResponseFrame& response, const std::string& key) {
  return serve::kv_get(serve::parse_kv_payload(response.payload), key)
      .value_or("");
}

/// A daemon serving on its own thread for one round.
class RunningDaemon {
 public:
  RunningDaemon(serve::DaemonConfig config, const dcsim::ScenarioSet& base)
      : daemon_(std::move(config), base), thread_([this] { serve_loop(); }) {}
  ~RunningDaemon() { stop(); }
  RunningDaemon(const RunningDaemon&) = delete;
  RunningDaemon& operator=(const RunningDaemon&) = delete;

  serve::Daemon& daemon() { return daemon_; }

  /// Sends shutdown and joins the serving thread. Returns an error message
  /// when run() threw (empty otherwise).
  std::string stop() {
    if (thread_.joinable()) {
      try {
        serve::ServeClient client(daemon_.config().socket_path);
        (void)client.call(serve::make_shutdown_request());
      } catch (const std::exception&) {
        // Already stopped; the join below is what matters.
      }
      thread_.join();
    }
    return error_;
  }

 private:
  void serve_loop() {
    try {
      daemon_.run();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  serve::Daemon daemon_;
  std::string error_;  ///< written by the serving thread before it ends
  std::thread thread_;
};

class ServeWorkload {
 public:
  ServeWorkload(const RunOptions& options, RunResult& result)
      : options_(options), result_(result) {
    config_.flare.analyzer.fixed_clusters = 18;
    config_.flare.analyzer.compute_quality_curve = false;
    config_.flare.drift_response.enabled = true;
    config_.flare.pca_update = core::PcaUpdatePolicy::kAuto;
    config_.refit = core::RefitPolicy::kAuto;
    config_.default_deadline_ms = 600000;  // nothing sheds by design
    base_path_ = write_trace(options.run_dir, "paper.csv", paper_trace());
    base_ = flare::trace::load_scenario_set(base_path_);
    for (const dcsim::ScenarioSet& batch :
         drift_stream(derive_seed(options.seed, "serve"), kBatches, kBatchRows)) {
      batches_.push_back(flare::trace::scenario_set_to_csv(batch));
      batch_rows_ += batch.size();
    }
    offline_replay();
  }

  Pass run_pass(const RoundBudget& budget, bool traced) {
    Pass pass;
    const Clock::time_point start = Clock::now();
    round(pass, traced, /*warmup=*/true);
    while (!budget.done(pass, seconds_since(start))) {
      round(pass, traced, /*warmup=*/false);
    }
    return pass;
  }

  /// Per-layer walk of the daemon's analysis path on the base population.
  void walk(int reps) {
    core::FlarePipeline fitted(config_.flare);
    fitted.fit(base_);
    LayerWalk walk;
    walk.shards = {&fitted};
    walk.load_trace = [this] {
      (void)flare::trace::load_scenario_set(base_path_);
    };
    walk_layers(walk, reps, result_);
    for (const auto& [name, value] : result_.det.counts) {
      result_.layer_values[name] = value;
    }
  }

 private:
  /// The offline model: base fit + the same batches, each its own group.
  /// Also the source of truth, of the deterministic ingest counts, and of
  /// the action behind every ingest round trip.
  void offline_replay() {
    core::FlarePipeline offline(config_.flare);
    offline.fit(base_);
    for (const core::Feature& feature : table4_features()) {
      const flare::baselines::FullDatacenterEvaluator full(
          offline.impact_model(), offline.scenario_set());
      truth_.push_back(full.evaluate(feature).impact_pct);
    }
    const std::size_t fitted_stages = offline.analysis().stage_counters.total();
    double valid = 0, reweight = 0, refit = 0, incremental = 0, suppressed = 0,
           quarantined = 0;
    for (std::size_t b = 0; b < batches_.size(); ++b) {
      const dcsim::ScenarioSet batch = flare::trace::parse_scenario_set_csv(
          batches_[b], "batch " + std::to_string(b));
      const core::IngestReport report = offline.ingest(batch, config_.refit);
      actions_.push_back(report.action);
      valid += report.action == core::DriftVerdict::kValid;
      reweight += report.action == core::DriftVerdict::kReweight;
      refit += report.action == core::DriftVerdict::kRefit;
      incremental += report.pca_incremental_refit;
      suppressed += report.response.refit_suppressed;
      quarantined += static_cast<double>(report.response.episode_rows +
                                         report.rows_quarantined);
    }
    const core::ValidatedFeatureEstimate final_estimate =
        offline.evaluate_with_validation(core::feature_cache_sizing());
    offline_final_ =
        flare::util::format_double_exact(final_estimate.estimate.impact_pct) +
        "±" + flare::util::format_double_exact(final_estimate.uncertainty_pp);
    const double actions = valid + reweight + refit;
    result_.det.counts = {
        {"ingest.valid", valid},
        {"ingest.reweight", reweight},
        {"ingest.refit", refit},
        {"ingest.incremental_refit", incremental},
        {"ingest.refits_suppressed", suppressed},
        {"ingest.quarantined_rows", quarantined},
        {"ingest.cheap_action_ratio", (valid + reweight) / actions},
        {"ingest.stage_recomputes",
         static_cast<double>(offline.analysis().stage_counters.total() -
                             fitted_stages)}};
  }

  void round(Pass& pass, bool traced, bool warmup) {
    try {
      run_round(pass, traced, warmup);
    } catch (const std::exception& e) {
      ++pass.failed;
      result_.checks.expect(false, std::string("operation threw: ") + e.what());
    }
    ++round_index_;
  }

  void run_round(Pass& pass, bool traced, bool warmup) {
    serve::DaemonConfig config = config_;
    const std::string tag = std::to_string(round_index_);
    config.state_dir = options_.run_dir + "/state" + tag;
    config.socket_path = options_.run_dir + "/s" + tag + ".sock";
    std::filesystem::remove_all(config.state_dir);
    const std::string socket = config.socket_path;

    // --- set-up: construction until the daemon answers ---------------------
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    auto running = std::make_unique<RunningDaemon>(config, base_);
    const bool ready =
        serve::wait_until_ready(socket, std::chrono::milliseconds(60000));
    const double setup_s = seconds_since(t0);
    if (!result_.checks.expect(ready, "daemon never became ready")) {
      ++pass.failed;
      return;
    }
    const serve::DaemonStats before = running->daemon().stats_snapshot();

    // --- cold: validated estimates of the three features -------------------
    ClientLog cold;
    std::uint64_t cold_epoch = 0;
    serve::ServeClient client(socket, std::chrono::milliseconds(60000));
    std::vector<serve::ResponseFrame> cold_answers;
    for (const char* spec : kFeatureSpecs) {
      cold_answers.push_back(cold.call(
          client, serve::make_evaluate_request(spec, true), "evaluate",
          cold_epoch));
    }
    const double tte_s = seconds_since(t0);
    pass.attempted += 1 + cold_answers.size();
    check_cold(cold_answers, pass);

    // --- steady: one writer, two readers, closed loop ----------------------
    ClientLog writer_log(traced), eval_log(traced), report_log(traced);
    std::atomic<bool> writer_done{false};
    const Clock::time_point w0 = Clock::now();
    std::thread writer([&] {
      serve::ServeClient c(socket, std::chrono::milliseconds(60000));
      std::uint64_t epoch = 0;
      for (std::size_t b = 0; b < batches_.size(); ++b) {
        const serve::ResponseFrame ack = writer_log.call(
            c, serve::make_ingest_request(batches_[b]), "ingest", epoch);
        if (ack.outcome == serve::Outcome::kOk && ack.epoch != b + 1) {
          writer_log.failures.push_back("ingest ack epoch " +
                                        std::to_string(ack.epoch) +
                                        " after batch " + std::to_string(b));
        }
        (void)writer_log.call(c, serve::make_status_request(), "status", epoch);
      }
      writer_done = true;
    });
    std::thread evaluator([&] {
      serve::ServeClient c(socket, std::chrono::milliseconds(60000));
      std::uint64_t epoch = 0;
      for (int i = 0; !writer_done; ++i) {
        (void)eval_log.call(
            c, serve::make_evaluate_request(kFeatureSpecs[i % 3], true),
            "evaluate", epoch);
      }
    });
    std::thread reporter([&] {
      serve::ServeClient c(socket, std::chrono::milliseconds(60000));
      std::uint64_t epoch = 0;
      while (!writer_done) {
        const serve::ResponseFrame r = report_log.call(
            c, serve::make_report_request("feature1;feature2;feature3"),
            "report", epoch);
        if (r.outcome == serve::Outcome::kOk && kv(r, "count") != "3") {
          report_log.failures.push_back("report did not carry 3 estimates");
        }
      }
    });
    writer.join();
    evaluator.join();
    reporter.join();
    const double steady_s = seconds_since(w0);
    const double round_s = seconds_since(t0);

    // --- final estimate and accounting -------------------------------------
    ClientLog final_log;
    std::uint64_t final_epoch = 0;
    const serve::ResponseFrame final_answer = final_log.call(
        client, serve::make_evaluate_request("feature1", true), "evaluate",
        final_epoch);
    const serve::DaemonStats after = running->daemon().stats_snapshot();
    const std::uint64_t epoch = running->daemon().epoch();
    const std::string served =
        kv(final_answer, "impact_pct") + "±" + kv(final_answer, "uncertainty_pp");
    const std::string daemon_error = running->stop();
    const double round_peak_rss_mb = peak_rss_mb();
    running.reset();
    std::filesystem::remove_all(config.state_dir);

    std::size_t failed = 0;
    for (ClientLog* log : {&cold, &writer_log, &eval_log, &report_log, &final_log}) {
      for (const std::string& failure : log->failures) {
        result_.checks.expect(false, failure);
      }
      failed += log->failures.size();
    }
    failed += !result_.checks.expect(daemon_error.empty(),
                                     "daemon run() threw: " + daemon_error);
    failed += !result_.checks.expect(
        final_answer.epoch == batches_.size(),
        "final estimate not served from the last acknowledged epoch");
    failed += !result_.checks.expect(
        served == offline_final_,
        "served estimate " + served + " differs from offline replay " +
            offline_final_);
    const std::uint64_t requests = after.requests - before.requests;
    const std::uint64_t outcomes =
        (after.ok - before.ok) + (after.shed - before.shed) +
        (after.failed - before.failed) + (after.timeout - before.timeout) +
        (after.shutting_down - before.shutting_down);
    failed += !result_.checks.expect(
        requests == outcomes,
        "request accounting: ok + shed + failed + timeout + shutting_down != "
        "requests");
    failed += !result_.checks.expect(
        static_cast<double>(after.actions_refit - before.actions_refit) ==
                result_.det.counts["ingest.refit"] &&
            static_cast<double>(after.actions_reweight -
                                before.actions_reweight) ==
                result_.det.counts["ingest.reweight"],
        "daemon ingest actions differ from the offline replay");
    pass.failed += failed;
    pass.attempted += writer_log.requests + eval_log.requests +
                      report_log.requests + final_log.requests;

    // Readers run until the writer is done, so request totals depend on
    // timing and are reported for the last round; the writer's groups and
    // every failure count are the same in every round.
    result_.layer_values["serve.requests"] = static_cast<double>(requests);
    result_.layer_values["serve.ok"] = static_cast<double>(after.ok - before.ok);
    const std::map<std::string, double> stats = {
        {"serve.shed", static_cast<double>(after.shed - before.shed)},
        {"serve.timeout", static_cast<double>(after.timeout - before.timeout)},
        {"serve.failed", static_cast<double>(after.failed - before.failed)},
        {"serve.coalesced_groups",
         static_cast<double>(after.coalesced_groups - before.coalesced_groups)},
        {"serve.epoch", static_cast<double>(epoch)}};
    record_stats(stats);

    if (traced) {
      for (ClientLog* log : {&writer_log, &eval_log, &report_log}) {
        for (const auto& [verb, ms] : log->ms) {
          auto& series = result_.layer_samples["serve." + verb + "_ms"];
          series.insert(series.end(), ms.begin(), ms.end());
        }
      }
      const std::vector<double>& ingest_ms = writer_log.ms["ingest"];
      for (std::size_t b = 0; b < ingest_ms.size(); ++b) {
        if (actions_[b] == core::DriftVerdict::kReweight) {
          result_.layer_samples["ingest.reweight_ms"].push_back(ingest_ms[b]);
        } else if (actions_[b] == core::DriftVerdict::kRefit) {
          result_.layer_samples["ingest.refit_ms"].push_back(ingest_ms[b]);
        }
      }
    }
    if (warmup) return;
    Round measured;
    measured.wall_s = round_s;
    measured.peak_rss_mb = round_peak_rss_mb;
    measured.add("setup_s", setup_s);
    measured.add("tte_s", tte_s);
    for (ClientLog* log : {&eval_log, &report_log}) {
      for (const auto& [verb, ms] : log->ms) {
        for (const double v : ms) measured.add("eval_ms", v);
      }
    }
    for (const double v : writer_log.ms["ingest"]) measured.add("ingest_ms", v);
    measured.ingest_rows = batch_rows_;
    measured.steady_ops =
        writer_log.requests + eval_log.requests + report_log.requests;
    measured.steady_wall_s = steady_s;
    pass.rounds.push_back(std::move(measured));
  }

  /// DaemonStats deltas of one round; every round must repeat the first.
  void record_stats(const std::map<std::string, double>& stats) {
    if (serve_stats_.empty()) {
      serve_stats_ = stats;
      result_.det.counts.insert(stats.begin(), stats.end());
    } else {
      result_.checks.expect(stats == serve_stats_,
                            "daemon counters differ between identical rounds");
    }
  }

  /// Served cold estimates against ground truth (first round) and against
  /// the first round bit for bit (later rounds).
  void check_cold(const std::vector<serve::ResponseFrame>& answers, Pass& pass) {
    const bool first = cold_exact_.empty();
    double worst = 0.0;
    double replays = 0.0;
    for (std::size_t i = 0; i < answers.size(); ++i) {
      const serve::ResponseFrame& r = answers[i];
      const std::string exact = kv(r, "impact_pct") + "±" + kv(r, "uncertainty_pp");
      bool ok = r.outcome == serve::Outcome::kOk;
      if (ok && first) {
        const double impact = std::stod(kv(r, "impact_pct"));
        const double band = std::stod(kv(r, "uncertainty_pp"));
        const double error = std::abs(impact - truth_[i]);
        ok = result_.checks.expect(error <= band || error < 1.0,
                                   std::string(kFeatureSpecs[i]) +
                                       ": served estimate misses truth by " +
                                       std::to_string(error) + " pp");
        worst = std::max(worst, error);
        replays += std::stod(kv(r, "replays"));
        cold_exact_.push_back(exact);
      } else if (ok) {
        ok = result_.checks.expect(exact == cold_exact_[i],
                                   std::string(kFeatureSpecs[i]) +
                                       ": served cold estimate differs "
                                       "between rounds");
      }
      pass.failed += !ok;
    }
    if (first && !cold_exact_.empty()) {
      result_.det.estimate_error_pp = worst;
      result_.det.replay_cost_ratio = static_cast<double>(base_.size()) /
                                      (replays / static_cast<double>(answers.size()));
    }
  }

  const RunOptions& options_;
  RunResult& result_;
  serve::DaemonConfig config_;
  std::string base_path_;
  dcsim::ScenarioSet base_;
  std::vector<std::string> batches_;  ///< CSV payloads, pre-rendered
  std::size_t batch_rows_ = 0;
  std::vector<core::DriftVerdict> actions_;  ///< offline action per batch
  std::vector<double> truth_;
  std::string offline_final_;
  std::vector<std::string> cold_exact_;
  std::map<std::string, double> serve_stats_;
  int round_index_ = 0;
};

}  // namespace

void run_serve_mix(const RunOptions& options, RunResult& result) {
  ServeWorkload workload(options, result);
  RoundBudget budget;
  budget.seconds = options.trace ? options.seconds / 2 : options.seconds;
  budget.hard_limit_s = std::max(3 * budget.seconds, 60.0);
  result.plain = workload.run_pass(budget, false);
  if (options.trace) {
    result.traced = workload.run_pass(budget, true);
    workload.walk(3);
  }
}

}  // namespace perfbench

// `flare serve` / `flare client`: the resident service plane (DESIGN.md
// §16). serve fits a base archive, recovers any crash-safe resident state,
// and answers ingest/evaluate/report/status/shutdown over a Unix-domain
// socket until told to stop; client is the matching one-shot caller that
// prints the response payload and maps non-ok outcomes to typed errors.
#include <chrono>
#include <ostream>

#include "cli/commands.hpp"
#include "cli/config_args.hpp"
#include "dcsim/fleet.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "trace/scenario_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::cli {

int run_serve(const Args& args, std::ostream& out) {
  serve::DaemonConfig config;
  config.socket_path = args.require_string("socket");
  config.state_dir = args.require_string("state-dir");
  const std::string scenarios_path = args.require_string("scenarios");

  config.flare.machine =
      dcsim::machine_shape_by_name(args.get_string("machine", "default"));
  config.flare.analyzer = analyzer_config_from(args);
  config.flare.schema = schema_by_name(args.get_string("schema", "standard"));
  config.flare.profiler.samples_per_scenario =
      static_cast<int>(args.get_int("samples", 4));
  config.flare.profiler.noise_stream = static_cast<std::uint64_t>(args.get_int(
      "seed", static_cast<long long>(config.flare.profiler.noise_stream)));
  config.flare.threads = threads_from(args);
  config.flare.profiler.threads = config.flare.threads;
  apply_replay_args(args, config.flare);
  apply_drift_response_args(args, config.flare);
  config.refit = refit_policy_from(args);

  const long long max_ingest = args.get_int("max-ingest-queue", 64);
  const long long max_eval = args.get_int("max-eval-queue", 64);
  ensure(max_ingest >= 1, "--max-ingest-queue must be >= 1");
  ensure(max_eval >= 1, "--max-eval-queue must be >= 1");
  config.limits.max_ingest = static_cast<std::size_t>(max_ingest);
  config.limits.max_eval = static_cast<std::size_t>(max_eval);
  config.default_deadline_ms =
      static_cast<std::uint32_t>(args.get_int("default-deadline-ms", 5000));
  config.frame_timeout_ms =
      static_cast<std::uint32_t>(args.get_int("frame-timeout-ms", 2000));

  // Test-only fault knobs: kill the daemon at a chosen commit-protocol point
  // (the crash-recovery suite drives these through a forked process).
  const long long kill_after = args.get_int("kill-after-ingest", -1);
  if (kill_after >= 0) {
    config.faults.enabled = true;
    config.faults.kill_after_ingest = static_cast<int>(kill_after);
    const std::string point = args.get_string("kill-point", "after-commit");
    if (point == "after-group-file") {
      config.faults.kill_point = serve::KillPoint::kAfterGroupFile;
    } else if (point == "after-commit") {
      config.faults.kill_point = serve::KillPoint::kAfterCommit;
    } else {
      throw ParseError("unknown --kill-point '" + point +
                       "' (after-group-file|after-commit)");
    }
  }
  args.reject_unconsumed();

  const dcsim::ScenarioSet base = trace::load_scenario_set(scenarios_path);
  serve::Daemon daemon(std::move(config), base);
  const serve::StartReport& report = daemon.start_report();
  out << "flare serve: listening on " << daemon.config().socket_path
      << " (epoch " << report.epoch << ", "
      << (report.recovered ? "recovered journal, " : "")
      << report.unacknowledged.size() << " unacknowledged group(s))\n";
  for (const std::string& orphan : report.unacknowledged) {
    out << "  unacknowledged: " << orphan << "\n";
  }
  out.flush();
  daemon.run();
  out << "flare serve: stopped\n";
  return 0;
}

int run_client(const Args& args, std::ostream& out) {
  const std::string socket_path = args.require_string("socket");
  const std::string verb = args.require_string("request");
  const std::uint32_t deadline_ms =
      static_cast<std::uint32_t>(args.get_int("deadline-ms", 0));
  const long long timeout_ms = args.get_int("timeout-ms", 10000);
  ensure(timeout_ms >= 1, "--timeout-ms must be >= 1");

  serve::RequestFrame request;
  if (verb == "status") {
    request = serve::make_status_request();
  } else if (verb == "shutdown") {
    request = serve::make_shutdown_request();
  } else if (verb == "ingest") {
    const dcsim::ScenarioSet batch =
        trace::load_scenario_set(args.require_string("batch"));
    request = serve::make_ingest_request(trace::scenario_set_to_csv(batch),
                                         deadline_ms);
  } else if (verb == "evaluate") {
    request = serve::make_evaluate_request(args.require_string("feature"),
                                           args.get_flag("validate"),
                                           deadline_ms);
  } else if (verb == "report") {
    request = serve::make_report_request(args.get_string("features", ""),
                                         deadline_ms);
  } else {
    throw ParseError("unknown client request '" + verb +
                     "' (status|ingest|evaluate|report|shutdown)");
  }
  args.reject_unconsumed();

  serve::ServeClient client(socket_path,
                            std::chrono::milliseconds(timeout_ms));
  const serve::ResponseFrame response = client.call(request);
  out << "outcome=" << serve::to_string(response.outcome) << "\n"
      << "epoch=" << response.epoch << "\n"
      << response.payload;
  if (response.outcome != serve::Outcome::kOk) {
    // A non-ok terminal outcome is an error for the one-shot caller: map it
    // onto the typed exit-code scheme (ServeError -> its own code).
    throw ServeError("flare client: " + std::string(verb) + " answered " +
                     std::string(serve::to_string(response.outcome)));
  }
  return 0;
}

}  // namespace flare::cli

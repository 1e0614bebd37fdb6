// Measurement plumbing shared by every workload of the benchmark binary:
// a monotonic clock, the per-pass sample record, the output checks, the span
// recorder used by traced runs and the peak-RSS window.
//
// Nothing here calls into FLARE. Workloads time public library calls and
// hand the raw samples to a Pass; run.py turns them into metrics.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return 1000.0 * seconds_since(start);
}

/// Output checks. A failed check is recorded with a message, counts as a
/// failed operation, and makes flare_perfbench exit non-zero.
class Checks {
 public:
  /// Records one check; returns `ok` so callers can count failed operations.
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t passed() const { return passed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::size_t passed_ = 0;
  std::vector<std::string> failures_;
};

/// In-memory span recorder: the summed duration of every span name. A
/// disabled recorder costs one branch per scope, so the plain pass and the
/// traced pass run the same code.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: adds [construction, destruction) to `name`'s total.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    std::string name_;
    Clock::time_point start_;
  };

  /// Sum of the durations (s) of every span named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;

 private:
  bool enabled_;
  std::map<std::string, double> totals_;
};

/// Raw samples of one measured round. Rounds of a workload repeat identical
/// work, so run.py can rank them by wall time.
struct Round {
  double wall_s = 0.0;  ///< set-up through the end of the steady phase
  /// Timing series: setup_s, tte_s, eval_ms, ingest_ms.
  std::map<std::string, std::vector<double>> samples;
  std::size_t ingest_rows = 0;  ///< rows behind the ingest_ms samples
  std::size_t steady_ops = 0;   ///< operations completed in the steady phase
  double steady_wall_s = 0.0;   ///< wall time of the steady phase
  double peak_rss_mb = 0.0;     ///< RSS high-water mark during the round

  void add(const std::string& series, double value) {
    samples[series].push_back(value);
  }
};

/// One measured pass over a workload: its rounds (warm-up excluded) and the
/// operation counts of every round, warm-up included.
struct Pass {
  std::vector<Round> rounds;
  /// Series whose samples every round produces for the same operations in
  /// the same order; run.py reduces them position by position.
  std::vector<std::string> replayed;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Samples of `series` across all measured rounds.
  [[nodiscard]] std::size_t total(const std::string& series) const;
};

/// Per-run values that are a pure function of the inputs (seed), reported
/// once and compared bit-for-bit across rounds.
struct Deterministic {
  double estimate_error_pp = 0.0;
  double replay_cost_ratio = 0.0;
  /// Per-layer counts of one round (ingest actions, replays, sweep points…).
  std::map<std::string, double> counts;
};

/// Minimum samples behind every reported 90th percentile: ten beyond it.
inline constexpr std::size_t kMinTailSamples = 100;

/// run.py reports statistics over the fastest 1/kQuietShare of a pass's
/// rounds, so a pass collects kQuietShare times the samples it needs.
inline constexpr std::size_t kQuietShare = 3;

/// Starts a peak-RSS window: returns freed heap to the system and resets the
/// kernel's resident high-water mark to the current RSS, so the next
/// peak_rss_mb() excludes reference models and earlier rounds that are gone.
/// Throws std::runtime_error when the mark cannot be reset.
void reset_peak_rss();

/// Peak resident set size (MiB) since the last reset_peak_rss() (VmHWM).
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench

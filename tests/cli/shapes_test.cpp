// `--shapes` through the CLI (ctest label `shard`): analyze, evaluate, ingest
// and report on a three-shape fleet must print the fleet lines — fan-in
// estimate and mass, fleet-wide truth, the per-shape rows, untouched shards
// — with the numbers pinned here. Extra per-shape detail may follow them.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "tests/cli/cli_test_env.hpp"

namespace flare::cli {
namespace {

using testing::read_file;
using testing::run;

constexpr const char* kFleet = "default:3,small:2,dense:1";

class CliShapesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(run({"simulate", "--shapes", kFleet, "--scenarios", "100",
                   "--out", fleet_.c_str()}),
              0);
  }
  void TearDown() override {
    for (const std::string* path : {&fleet_, &batch_, &metrics_, &report_}) {
      std::remove(path->c_str());
    }
  }
  // Unique per-test paths: ctest runs these cases concurrently.
  std::string stem_ =
      ::testing::TempDir() + "/shapes_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string fleet_ = stem_ + "_fleet.csv";
  std::string batch_ = stem_ + "_batch.csv";
  std::string metrics_ = stem_ + "_metrics.csv";
  std::string report_ = stem_ + "_report.md";
};

/// Expects `line` (newline included) to appear in `text`.
void expect_line(const std::string& text, const std::string& line) {
  EXPECT_NE(text.find(line), std::string::npos)
      << "missing line: " << line << "in:\n"
      << text;
}

TEST_F(CliShapesTest, AnalyzeRoutesMetricRowsByTheScenarioTrace) {
  // The dense shape's mixes only fit on a dense machine.
  ASSERT_EQ(run({"profile", "--scenarios", fleet_.c_str(), "--out",
                 metrics_.c_str(), "--samples", "2", "--machine", "dense"}),
            0);
  std::string out;
  ASSERT_EQ(run({"analyze", "--metrics", metrics_.c_str(), "--shapes", kFleet,
                 "--scenarios", fleet_.c_str(), "--clusters", "4"},
                &out),
            0);
  expect_line(out,
              "shape default (w=50%): 100 scenarios, 93 kept metrics, 17 PCs, "
              "4 behaviour groups\n");
  expect_line(out,
              "shape small (w=33%): 101 scenarios, 94 kept metrics, 17 PCs, "
              "4 behaviour groups\n");
  expect_line(out,
              "shape dense (w=16%): 100 scenarios, 87 kept metrics, 15 PCs, "
              "4 behaviour groups\n");
  expect_line(out,
              "fleet: 301 scenarios across 3 shapes, 12 behaviour groups total "
              "(per-shape pipelines never pool)\n");
}

TEST_F(CliShapesTest, EvaluateFansInWithTruthAndPerJob) {
  std::string out;
  ASSERT_EQ(run({"evaluate", "--scenarios", fleet_.c_str(), "--shapes", kFleet,
                 "--feature", "feature2", "--clusters", "4", "--truth",
                 "--per-job"},
                &out),
            0);
  expect_line(out,
              "fleet estimate: 22.6225% HP MIPS reduction (12 scenario replays "
              "vs 301 scenarios across 3 shapes)\n");
  expect_line(out,
              "fan-in mass: direct 100% / fallback 0% / quarantined 0% "
              "(total 100%)\n");
  expect_line(out,
              "shape    weight %  impact %  clusters  replays\n"
              "----------------------------------------------\n"
              "default      50.0     22.38         4        4\n"
              "small        33.3     25.24         4        4\n"
              "dense        16.7     18.11         4        4\n");
  expect_line(out,
              "fleet-wide truth: 22.9114%  (sharded |error| 0.288898 pp)\n");
  expect_line(out,
              "per-HP-job impacts (fleet-wide):\n"
              "job  impact %  covered weight %\n"
              "-------------------------------\n"
              "DA      22.14             100.0\n"
              "DC      21.95             100.0\n"
              "DS      21.72             100.0\n"
              "GA      19.00              50.0\n"
              "IA      22.10             100.0\n"
              "MS      28.96             100.0\n"
              "WSC     24.25             100.0\n"
              "WSV     26.08              50.0\n");
}

// Per-shape blocks: after the fleet lines, each shape prints the block a
// plain run prints, sampling baseline included (before the CLI had one path,
// --shapes printed no per-shape block and refused --sampling).
class CliShapesDetailTest : public CliShapesTest {};

TEST_F(CliShapesDetailTest, EvaluatePrintsEachShapesOwnBlock) {
  std::string out;
  ASSERT_EQ(run({"evaluate", "--scenarios", fleet_.c_str(), "--shapes", kFleet,
                 "--feature", "feature2", "--clusters", "4", "--sampling"},
                &out),
            0);
  for (const char* shape : {"default", "small", "dense"}) {
    expect_line(out, "\nshape " + std::string(shape) + ":\nFLARE estimate: ");
  }
  std::size_t samplings = 0;
  for (std::size_t at = out.find("sampling @ equal cost");
       at != std::string::npos; at = out.find("sampling @ equal cost", at + 1)) {
    ++samplings;
  }
  EXPECT_EQ(samplings, 3u) << out;
}

TEST_F(CliShapesTest, IngestTouchesOnlyTheShapeItsRowsName) {
  ASSERT_EQ(run({"simulate", "--out", batch_.c_str(), "--machine", "small",
                 "--scenarios", "20", "--seed", "11"}),
            0);
  std::string out;
  ASSERT_EQ(run({"ingest", "--scenarios", fleet_.c_str(), "--batch",
                 batch_.c_str(), "--shapes", kFleet, "--clusters", "4"},
                &out),
            0);
  expect_line(out,
              "fitted 301 scenarios into 12 behaviour groups across 3 "
              "shards\n");
  expect_line(out, "shape default: untouched (no rows routed)\n");
  expect_line(out,
              "shape small: +24 rows, verdict refit, action refit, pca drift "
              "0.966386\n");
  expect_line(out, "shape dense: untouched (no rows routed)\n");
  expect_line(out, "fleet: 24 rows routed to 1/3 shards\n");
}

TEST_F(CliShapesTest, ReportWritesTheFleetReport) {
  std::string out;
  ASSERT_EQ(run({"report", "--scenarios", fleet_.c_str(), "--shapes", kFleet,
                 "--out", report_.c_str(), "--clusters", "4", "--truth"},
                &out),
            0);
  expect_line(out,
              "evaluated 3 feature(s) on 12 representatives across 3 shards "
              "(36 replays total)\n");
  const std::string md = read_file(report_);
  expect_line(md, "# FLARE fleet feature-evaluation report\n");
  expect_line(md,
              "| `default` | 3 | 50.0 % | 100 | 4 |\n"
              "| `small` | 2 | 33.3 % | 101 | 4 |\n"
              "| `dense` | 1 | 16.7 % | 100 | 4 |\n");
  expect_line(md,
              "| feature1-cache-sizing | 6.72 % | 7.12 % | 0.40 pp | 12 |\n"
              "| feature2-dvfs-cap | 22.62 % | 22.91 % | 0.29 pp | 12 |\n"
              "| feature3-smt-off | 23.32 % | 23.06 % | 0.26 pp | 12 |\n");
  expect_line(md,
              "| `default` | 50.0 % | 22.38 % | 11.19 % |\n"
              "| `small` | 33.3 % | 25.24 % | 8.41 % |\n"
              "| `dense` | 16.7 % | 18.11 % | 3.02 % |\n\n"
              "Fan-in mass: direct 100.0 % / fallback 0.0 % / quarantined "
              "0.0 % (total 100.0 %).\n");
  expect_line(md,
              "Generated by `flare report --shapes` — sharded "
              "heterogeneous-fleet evaluation after Lee et al., Middleware "
              "'23 §5.5.\n");
}

/// Runs a command that must fail with a usage error before touching any file
/// (the paths below do not exist) and returns its message.
std::string usage_error(const std::vector<const char*>& argv) {
  std::string err;
  EXPECT_EQ(run(argv, nullptr, &err), 2) << err;
  return err;
}

void expect_machine_shapes_conflict(std::vector<const char*> argv) {
  argv.insert(argv.end(), {"--machine", "small", "--shapes", kFleet});
  const std::string err = usage_error(argv);
  EXPECT_NE(err.find("--machine and --shapes are mutually exclusive"),
            std::string::npos)
      << err;
}

TEST(CliShapesFlags, SimulateRejectsMachineWithShapes) {
  expect_machine_shapes_conflict({"simulate", "--out", "/nonexistent/s.csv"});
}

TEST(CliShapesFlags, EvaluateRejectsMachineWithShapes) {
  expect_machine_shapes_conflict({"evaluate", "--scenarios",
                                  "/nonexistent/s.csv", "--feature",
                                  "feature2"});
}

TEST(CliShapesFlags, IngestRejectsMachineWithShapes) {
  expect_machine_shapes_conflict({"ingest", "--scenarios", "/nonexistent/s.csv",
                                  "--batch", "/nonexistent/b.csv"});
}

TEST(CliShapesFlags, CampaignRejectsMachineWithShapes) {
  expect_machine_shapes_conflict({"campaign", "--scenarios",
                                  "/nonexistent/s.csv", "--feature",
                                  "feature2"});
}

TEST(CliShapesFlags, ReportRejectsMachineWithShapes) {
  expect_machine_shapes_conflict({"report", "--scenarios", "/nonexistent/s.csv",
                                  "--out", "/nonexistent/r.md"});
}

TEST(CliShapesFlags, AnalyzeKeepsOutOfCoreSingleShape) {
  const std::string err = usage_error(
      {"analyze", "--metrics", "/nonexistent/m.csv", "--shapes", kFleet,
       "--scenarios", "/nonexistent/s.csv", "--storage", "mmap"});
  EXPECT_NE(err.find("supports --storage ram only"), std::string::npos) << err;
}

TEST(CliShapesFlags, IngestKeepsMetricsArchivesSingleShape) {
  const std::string err = usage_error(
      {"ingest", "--scenarios", "/nonexistent/s.csv", "--batch",
       "/nonexistent/b.csv", "--shapes", kFleet, "--commit", "--metrics",
       "/nonexistent/m.csv"});
  EXPECT_NE(err.find("does not support --metrics"), std::string::npos) << err;
}

}  // namespace
}  // namespace flare::cli

// Single-shape CLI goldens: the exact stdout, report Markdown and campaign
// archive of the plain (no --shapes) pipeline commands, captured once and
// compared byte for byte. A plain run is a one-shape fleet inside the CLI;
// these files prove that costs the operator nothing visible. Temp paths are
// written as "@" so the goldens do not depend on where the test runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "tests/cli/cli_test_env.hpp"
#include "util/hash.hpp"

namespace flare::cli {
namespace {

using testing::expect_golden;
using testing::read_file;
using testing::run;

class CliGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(run({"simulate", "--out", scenarios_.c_str(), "--scenarios",
                   "120", "--seed", "7"}),
              0);
  }
  void TearDown() override {
    for (const std::string* path :
         {&scenarios_, &batch_, &metrics_, &report_, &state_}) {
      std::remove(path->c_str());
    }
    std::remove((metrics_ + ".fcs").c_str());
  }
  [[nodiscard]] std::string normalised(const std::string& text) const {
    return testing::replace_all(text, stem_, "@");
  }
  void profile() {
    ASSERT_EQ(run({"profile", "--scenarios", scenarios_.c_str(), "--out",
                   metrics_.c_str()}),
              0);
  }
  void expect_report(std::initializer_list<const char*> flags,
                     const std::string& golden) {
    std::vector<const char*> argv = {"report", "--scenarios",
                                     scenarios_.c_str(), "--out",
                                     report_.c_str(), "--clusters", "6"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    std::string out, err;
    ASSERT_EQ(run(argv, &out, &err), 0) << err;
    expect_golden(golden + ".stdout", normalised(out));
    expect_golden(golden + ".md", read_file(report_));
  }
  // Unique per-test paths: ctest runs these cases concurrently.
  std::string stem_ =
      ::testing::TempDir() + "/golden_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string scenarios_ = stem_ + "_scenarios.csv";
  std::string batch_ = stem_ + "_batch.csv";
  std::string metrics_ = stem_ + "_metrics.csv";
  std::string report_ = stem_ + "_report.md";
  std::string state_ = stem_ + "_campaign.csv";
};

TEST_F(CliGoldenTest, Analyze) {
  profile();
  std::string out;
  ASSERT_EQ(run({"analyze", "--metrics", metrics_.c_str(), "--clusters", "6"},
                &out),
            0);
  expect_golden("analyze.stdout", out);
}

TEST_F(CliGoldenTest, AnalyzeOutOfCore) {
  profile();
  std::string out;
  ASSERT_EQ(run({"analyze", "--metrics", metrics_.c_str(), "--clusters", "6",
                 "--storage", "mmap", "--memory-budget", "1"},
                &out),
            0);
  expect_golden("analyze_mmap.stdout", out);
}

TEST_F(CliGoldenTest, EvaluateTruthPerJob) {
  std::string out;
  ASSERT_EQ(run({"evaluate", "--scenarios", scenarios_.c_str(), "--feature",
                 "feature2", "--clusters", "6", "--truth", "--per-job"},
                &out),
            0);
  expect_golden("evaluate_truth_per_job.stdout", out);
}

TEST_F(CliGoldenTest, EvaluateReplayFaultsAndSampling) {
  std::string out;
  ASSERT_EQ(run({"evaluate", "--scenarios", scenarios_.c_str(), "--feature",
                 "feature1", "--clusters", "6", "--replay-faults", "0.1",
                 "--sampling"},
                &out),
            0);
  expect_golden("evaluate_faults_sampling.stdout", out);
}

TEST_F(CliGoldenTest, Report) { expect_report({}, "report"); }

TEST_F(CliGoldenTest, ReportReplayFaults) {
  expect_report({"--replay-faults", "0.1"}, "report_faults");
}

TEST_F(CliGoldenTest, ReportTruth) {
  expect_report({"--truth", "--features", "feature2;fmax=2.0,llc=20"},
                "report_truth");
}

TEST_F(CliGoldenTest, IngestCommitMetrics) {
  profile();
  ASSERT_EQ(run({"simulate", "--out", batch_.c_str(), "--scenarios", "25",
                 "--seed", "11"}),
            0);
  std::string out;
  ASSERT_EQ(run({"ingest", "--scenarios", scenarios_.c_str(), "--batch",
                 batch_.c_str(), "--clusters", "6", "--commit", "--metrics",
                 metrics_.c_str()},
                &out),
            0);
  expect_golden("ingest_commit_metrics.stdout", normalised(out));
  // The appended archives, pinned by content hash (the metric CSV is ~0.3 MB).
  EXPECT_EQ(util::fnv1a(read_file(scenarios_)), 0xb46d0b8f06210e8cull) << "scenario archive";
  EXPECT_EQ(util::fnv1a(read_file(metrics_)), 0x957d8ed0a78fef88ull) << "metric archive";
}

TEST_F(CliGoldenTest, CampaignState) {
  std::string out;
  ASSERT_EQ(run({"campaign", "--scenarios", scenarios_.c_str(), "--feature",
                 "feature2", "--clusters", "6", "--testbeds", "2",
                 "--replay-faults", "0.1", "--campaign-state", state_.c_str(),
                 "--truth"},
                &out),
            0);
  expect_golden("campaign.stdout", normalised(out));
  expect_golden("campaign_state.csv", read_file(state_));
}

}  // namespace
}  // namespace flare::cli

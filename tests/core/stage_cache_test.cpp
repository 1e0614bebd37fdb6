#include "core/stage_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

namespace flare::core {
namespace {

linalg::Matrix make_matrix(std::size_t rows, std::size_t cols, double salt) {
  linalg::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = salt + static_cast<double>(r * cols + c) * 0.125;
    }
  }
  return m;
}

class StageCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: sibling cases run as concurrent ctest processes, and
    // TearDown's remove_all on a shared dir would yank a neighbour's spills.
    spill_dir_ =
        ::testing::TempDir() + "/flare_spill_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(spill_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(spill_dir_); }
  std::string spill_dir_;
};

TEST_F(StageCacheTest, HitReturnsInsertedValue) {
  StageOutputCache cache;
  cache.put("scores", 0xABCD, make_matrix(4, 3, 1.0));
  const std::optional<linalg::Matrix> got = cache.get("scores", 0xABCD);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data(), make_matrix(4, 3, 1.0).data());
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same fingerprint under a different stage name is a distinct key.
  EXPECT_FALSE(cache.get("moments", 0xABCD).has_value());
}

TEST_F(StageCacheTest, RejectsPoisonedFingerprint) {
  StageOutputCache cache;
  EXPECT_THROW(cache.put("scores", 0, make_matrix(1, 1, 0.0)),
               std::invalid_argument);
  EXPECT_FALSE(cache.get("scores", 0).has_value());
}

TEST_F(StageCacheTest, SpillsUnderBudgetAndReloadsBitIdentically) {
  StageCacheConfig config;
  config.memory_budget_bytes = 2 * 16 * sizeof(double);  // two 4×4 matrices
  config.spill_dir = spill_dir_;
  StageOutputCache cache(config);
  cache.put("a", 1, make_matrix(4, 4, 1.0));
  cache.put("b", 2, make_matrix(4, 4, 2.0));
  EXPECT_EQ(cache.stats().spills, 0u);
  cache.put("c", 3, make_matrix(4, 4, 3.0));  // pushes the LRU ("a") out
  EXPECT_EQ(cache.stats().spills, 1u);
  EXPECT_TRUE(std::filesystem::exists(cache.spill_path("a", 1)));

  // The reload must be the exact bytes that were spilled.
  const std::optional<linalg::Matrix> a = cache.get("a", 1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->data(), make_matrix(4, 4, 1.0).data());
  EXPECT_EQ(cache.stats().reloads, 1u);
  // Reloading "a" re-entered RAM, so something else spilled to make room.
  EXPECT_LE(cache.stats().resident_bytes, config.memory_budget_bytes);
}

TEST_F(StageCacheTest, HighDriftPriorityLeavesRamFirst) {
  StageCacheConfig config;
  config.memory_budget_bytes = 2 * 16 * sizeof(double);
  config.spill_dir = spill_dir_;
  StageOutputCache cache(config);
  // "stale" was touched MOST recently before the overflow, but its basis has
  // drifted near the refit limit — it must still be the victim.
  cache.put("fresh", 1, make_matrix(4, 4, 1.0), /*eviction_priority=*/0.0);
  cache.put("stale", 2, make_matrix(4, 4, 2.0), /*eviction_priority=*/0.9);
  (void)cache.get("stale", 2);  // make it MRU... then demote via a new insert
  (void)cache.get("fresh", 1);
  cache.put("new", 3, make_matrix(4, 4, 3.0), /*eviction_priority=*/0.0);
  EXPECT_TRUE(std::filesystem::exists(cache.spill_path("stale", 2)));
  EXPECT_FALSE(std::filesystem::exists(cache.spill_path("fresh", 1)));
}

TEST_F(StageCacheTest, NoSpillDirDropsAndRecomputes) {
  StageCacheConfig config;
  config.memory_budget_bytes = 16 * sizeof(double);
  StageOutputCache cache(config);  // no spill_dir
  cache.put("a", 1, make_matrix(4, 4, 1.0));
  cache.put("b", 2, make_matrix(4, 4, 2.0));  // "a" dropped outright
  EXPECT_EQ(cache.stats().drops, 1u);
  EXPECT_FALSE(cache.get("a", 1).has_value());

  int computes = 0;
  const linalg::Matrix again = cache.get_or_compute("a", 1, 0.0, [&]() {
    ++computes;
    return make_matrix(4, 4, 1.0);
  });
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(again.data(), make_matrix(4, 4, 1.0).data());
}

TEST_F(StageCacheTest, ColdStartFindsSpillFilesFromEarlierProcess) {
  StageCacheConfig config;
  config.spill_dir = spill_dir_;
  config.memory_budget_bytes = 16 * sizeof(double);
  {
    StageOutputCache first(config);
    first.put("a", 7, make_matrix(4, 4, 4.5));
    first.put("b", 8, make_matrix(4, 4, 5.5));  // spills "a"
    ASSERT_TRUE(std::filesystem::exists(first.spill_path("a", 7)));
  }  // first cache destroyed; spill files persist on disk
  StageOutputCache second(config);
  const std::optional<linalg::Matrix> a = second.get("a", 7);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->data(), make_matrix(4, 4, 4.5).data());
  EXPECT_EQ(second.stats().reloads, 1u);
}

TEST_F(StageCacheTest, InvalidateAndClearDeleteSpillFiles) {
  StageCacheConfig config;
  config.spill_dir = spill_dir_;
  config.memory_budget_bytes = 16 * sizeof(double);
  StageOutputCache cache(config);
  cache.put("a", 1, make_matrix(4, 4, 1.0));
  cache.put("b", 2, make_matrix(4, 4, 2.0));
  cache.put("c", 3, make_matrix(4, 4, 3.0));
  cache.invalidate("a", 1);
  EXPECT_FALSE(std::filesystem::exists(cache.spill_path("a", 1)));
  EXPECT_FALSE(cache.get("a", 1).has_value());
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(std::filesystem::exists(cache.spill_path("b", 2)));
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

/// Writes a spill file by hand: the FLARESP1 magic, a (rows, cols) header and
/// `payload_doubles` doubles — whatever the header claims.
void write_raw_spill(const std::string& path, std::uint64_t rows,
                     std::uint64_t cols, std::size_t payload_doubles) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::uint64_t dims[2] = {rows, cols};
  const std::vector<double> payload(payload_doubles, 1.5);
  std::fwrite("FLARESP1", 1, 8, f);
  std::fwrite(dims, sizeof(std::uint64_t), 2, f);
  std::fwrite(payload.data(), sizeof(double), payload.size(), f);
  std::fclose(f);
}

/// A corrupt spill must be a miss that recomputes, never a throw or an
/// allocation sized by the header.
void expect_miss_and_recompute(const StageCacheConfig& config) {
  StageOutputCache cache(config);
  int computes = 0;
  linalg::Matrix got;
  EXPECT_NO_THROW(got = cache.get_or_compute("a", 1, 0.0, [&]() {
    ++computes;
    return make_matrix(2, 2, 3.0);
  }));
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(got.data(), make_matrix(2, 2, 3.0).data());
  EXPECT_EQ(cache.stats().reloads, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(StageCacheTest, SpillHeaderWithHugeDimensionsIsAMiss) {
  StageCacheConfig config;
  config.spill_dir = spill_dir_;
  // 2^40 doubles (8 TiB) claimed, 4 held.
  write_raw_spill(StageOutputCache(config).spill_path("a", 1), 1ull << 20,
                  1ull << 20, 4);
  expect_miss_and_recompute(config);
}

TEST_F(StageCacheTest, SpillHeaderWhoseSizeWrapsIsAMiss) {
  StageCacheConfig config;
  config.spill_dir = spill_dir_;
  // (2^63 + 8) × 2 wraps uint64 to 16, and the file holds exactly 16 doubles.
  write_raw_spill(StageOutputCache(config).spill_path("a", 1),
                  (1ull << 63) + 8, 2, 16);
  expect_miss_and_recompute(config);
  // 2^32 × 2^32 wraps to zero: an "empty" payload for a giant matrix.
  write_raw_spill(StageOutputCache(config).spill_path("a", 1), 1ull << 32,
                  1ull << 32, 0);
  expect_miss_and_recompute(config);
}

TEST_F(StageCacheTest, SpillClaimingMoreDataThanTheFileHoldsIsAMiss) {
  StageCacheConfig config;
  config.spill_dir = spill_dir_;
  write_raw_spill(StageOutputCache(config).spill_path("a", 1), 4, 4, 8);
  expect_miss_and_recompute(config);
}

}  // namespace
}  // namespace flare::core

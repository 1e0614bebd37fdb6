// Shared helpers for the CLI golden and --shapes suites: drive `run_cli`
// in-process and compare captured output with the files in tests/cli/golden.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"

namespace flare::cli::testing {

inline int run(const std::vector<const char*>& argv,
               std::string* out_text = nullptr,
               std::string* err_text = nullptr) {
  std::vector<const char*> v = {"flare"};
  v.insert(v.end(), argv.begin(), argv.end());
  std::ostringstream out, err;
  const int code = run_cli(static_cast<int>(v.size()), v.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

inline std::string replace_all(std::string text, const std::string& from,
                               const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// Expects `actual` to equal tests/cli/golden/`name` byte for byte. With
/// FLARE_UPDATE_GOLDEN=1 in the environment the file is rewritten instead —
/// for a change that means to alter the CLI's output.
inline void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(FLARE_CLI_GOLDEN_DIR) + "/" + name;
  if (std::getenv("FLARE_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
    return;
  }
  ASSERT_TRUE(std::ifstream(path).good()) << "missing golden file " << path;
  EXPECT_EQ(read_file(path), actual) << "output differs from golden " << name;
}

}  // namespace flare::cli::testing

// Temp paths for tests that write files. Each name carries the process id
// and the running test case, so two copies of one suite running at once
// (two build trees' ctest on one machine, or one binary started twice) never
// share a file or a directory.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace mm::testing_support {

/// temp_directory_path() / "<stem>_<pid>_<Suite>_<Case><extension>" for a
/// `name` of "<stem><extension>". Call it inside a test body.
inline std::filesystem::path unique_temp_path(const std::string& name) {
  const ::testing::TestInfo& info =
      *::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path file(name);
  return std::filesystem::temp_directory_path() /
         (file.stem().string() + "_" + std::to_string(::getpid()) + "_" +
          info.test_suite_name() + "_" + info.name() + file.extension().string());
}

}  // namespace mm::testing_support

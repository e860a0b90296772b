// Temp paths for tests that write files. Each name sits in a directory of
// its own process and carries the running test case, so two copies of one
// suite running at once (two build trees' ctest on one machine, or one
// binary started twice) never share a file or a directory. The directory
// goes when the process exits normally, so repeated runs leave nothing
// behind in the system temp directory.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace mm::testing_support {

/// temp_directory_path() / "mm_test_<pid>": created on first use, removed
/// with its contents at normal exit (not by _exit or a fatal signal, so a
/// forked child that dies that way leaves its parent's files alone).
inline const std::filesystem::path& process_temp_dir() {
  struct Dir {
    std::filesystem::path path = std::filesystem::temp_directory_path() /
                                 ("mm_test_" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// process_temp_dir() / "<stem>_<Suite>_<Case><extension>" for a `name` of
/// "<stem><extension>". Call it inside a test body.
inline std::filesystem::path unique_temp_path(const std::string& name) {
  const ::testing::TestInfo& info =
      *::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path file(name);
  return process_temp_dir() / (file.stem().string() + "_" + info.test_suite_name() +
                               "_" + info.name() + file.extension().string());
}

}  // namespace mm::testing_support

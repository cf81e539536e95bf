// Per-test scratch file paths.  ctest runs every TEST as its own process,
// in parallel under -j, so a fixed /tmp name shared by a fixture's tests
// lets one test's TearDown delete or overwrite a file another test is still
// reading.  Naming the file after the running test and the pid keeps each
// test's file its own.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace hcc::test_util {

/// <temp dir>/hccmf_<Suite>.<Test>_<pid><suffix>
inline std::string unique_temp_path(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "hccmf_";
  if (info != nullptr) {
    name += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  name += std::to_string(::getpid()) + suffix;
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace hcc::test_util

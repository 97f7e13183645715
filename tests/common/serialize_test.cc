#include "common/serialize.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

namespace crowdjoin {
namespace {

namespace fs = std::filesystem;

// A fresh, empty directory under the test temp dir.
fs::path FreshDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(AtomicWriteFile, WritesAndReplacesWithoutLeavingTheTempFile) {
  const fs::path dir = FreshDir("cj_atomic_write");
  const std::string path = (dir / "state.bin").string();
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  EXPECT_EQ(ReadFileToString(path).value(), "first");
  ASSERT_TRUE(AtomicWriteFile(path, std::string(100000, 'x')).ok());
  EXPECT_EQ(ReadFileToString(path).value(), std::string(100000, 'x'));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  fs::remove_all(dir);
}

TEST(AtomicWriteFile, MissingDirectoryIsAnError) {
  const fs::path dir = FreshDir("cj_atomic_missing");
  const std::string path = (dir / "absent" / "state.bin").string();
  const Status status = AtomicWriteFile(path, "data");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find(path + ".tmp"), std::string::npos)
      << status;
  fs::remove_all(dir);
}

// A rename onto a non-empty directory fails after the bytes are written:
// the error names the rename, and the temp file is removed.
TEST(AtomicWriteFile, FailedRenameRemovesTheTempFile) {
  const fs::path dir = FreshDir("cj_atomic_rename");
  const fs::path target = dir / "occupied";
  fs::create_directories(target / "child");
  const Status status = AtomicWriteFile(target.string(), "data");
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("rename"), std::string::npos) << status;
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  EXPECT_TRUE(fs::is_directory(target / "child"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace crowdjoin

// storage::File tests. The read loop must fill every buffer exactly —
// across short reads (forced deterministically via max_bytes_per_call),
// IOV_MAX-sized windows and zero-length iovecs — and running out of file
// must fail loudly as Corruption. The write side must surface a failed
// write as a Status, and WriteFileAtomic must replace its target without
// leaving its temporary behind.

#include "storage/file.h"

#include <limits.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace onion::storage {
namespace {

std::string TestDir() {
  const std::string dir = ::testing::TempDir() + "/file_test";
  std::filesystem::create_directories(dir);
  return dir;
}

class FileReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestDir() + "/data.bin";
    contents_.resize(10'000);
    for (size_t i = 0; i < contents_.size(); ++i) {
      contents_[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    {
      auto out = File::Create(path_);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_TRUE(out.value().Append(contents_.data(), contents_.size()).ok());
    }
    auto in = File::OpenForRead(path_);
    ASSERT_TRUE(in.ok()) << in.status().ToString();
    file_ = std::move(in).value();
  }

  /// Builds iovecs over `buffers` and checks ReadvAt reproduces the file
  /// bytes starting at `offset`.
  void ReadAndVerify(uint64_t offset,
                     std::vector<std::vector<uint8_t>>* buffers,
                     size_t max_bytes_per_call) {
    std::vector<struct iovec> iov(buffers->size());
    for (size_t i = 0; i < buffers->size(); ++i) {
      iov[i].iov_base = (*buffers)[i].data();
      iov[i].iov_len = (*buffers)[i].size();
    }
    const Status status =
        file_.ReadvAt(offset, iov.data(), iov.size(), max_bytes_per_call);
    ASSERT_TRUE(status.ok()) << status.ToString();
    size_t at = offset;
    for (const std::vector<uint8_t>& buffer : *buffers) {
      for (const uint8_t byte : buffer) {
        ASSERT_EQ(byte, contents_[at]) << "file offset " << at;
        ++at;
      }
    }
  }

  std::string path_;
  std::vector<uint8_t> contents_;
  File file_;
};

TEST_F(FileReadTest, FillsScatteredBuffersAtAnOffset) {
  std::vector<std::vector<uint8_t>> buffers;
  buffers.emplace_back(137);
  buffers.emplace_back(1);
  buffers.emplace_back(900);
  ReadAndVerify(/*offset=*/123, &buffers, /*max_bytes_per_call=*/0);
}

TEST_F(FileReadTest, ResumesAcrossForcedShortReads) {
  // Every call may return at most 3 bytes: buffers larger than that can
  // only be filled by the resume loop, including mid-iovec resumption.
  std::vector<std::vector<uint8_t>> buffers;
  buffers.emplace_back(10);
  buffers.emplace_back(7);
  buffers.emplace_back(25);
  ReadAndVerify(/*offset=*/55, &buffers, /*max_bytes_per_call=*/3);
}

TEST_F(FileReadTest, ShortReadLandingExactlyOnAnIovecBoundary) {
  // max == first buffer size: each call completes exactly one iovec, the
  // next call must start cleanly at the following one.
  std::vector<std::vector<uint8_t>> buffers;
  buffers.emplace_back(8);
  buffers.emplace_back(8);
  buffers.emplace_back(8);
  ReadAndVerify(/*offset=*/200, &buffers, /*max_bytes_per_call=*/8);
}

TEST_F(FileReadTest, HandlesMoreIovecsThanIovMax) {
  // 2 * IOV_MAX + 100 tiny buffers force at least three call windows even
  // without the byte cap.
  const size_t count = 2 * static_cast<size_t>(IOV_MAX) + 100;
  ASSERT_LE(count * 3, contents_.size());
  std::vector<std::vector<uint8_t>> buffers;
  buffers.reserve(count);
  for (size_t i = 0; i < count; ++i) buffers.emplace_back(3);
  ReadAndVerify(/*offset=*/0, &buffers, /*max_bytes_per_call=*/0);
}

TEST_F(FileReadTest, SkipsZeroLengthIovecs) {
  std::vector<std::vector<uint8_t>> buffers;
  buffers.emplace_back(0);
  buffers.emplace_back(40);
  buffers.emplace_back(0);
  buffers.emplace_back(0);
  buffers.emplace_back(17);
  buffers.emplace_back(0);
  ReadAndVerify(/*offset=*/400, &buffers, /*max_bytes_per_call=*/5);
}

TEST_F(FileReadTest, EarlyEofIsCorruption) {
  std::vector<uint8_t> buffer(100);
  struct iovec iov;
  iov.iov_base = buffer.data();
  iov.iov_len = buffer.size();
  // 50 bytes short of what the iovec needs.
  const Status status = file_.ReadvAt(contents_.size() - 50, &iov, 1);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST_F(FileReadTest, ReadAtPastEofIsCorruption) {
  std::vector<uint8_t> buffer(10);
  ASSERT_TRUE(file_.ReadAt(contents_.size() - 10, buffer.data(), 10).ok());
  EXPECT_EQ(buffer.back(), contents_.back());
  const Status status =
      file_.ReadAt(contents_.size() + 1, buffer.data(), buffer.size());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

TEST(FileTest, AppendToAFullDeviceFails) {
  // /dev/full accepts the open and refuses every write with ENOSPC. Only
  // File itself is pointed at it: it never unlinks its path on failure.
  auto file = File::Create("/dev/full");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const Status status = file.value().Append("x", 1);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
}

TEST(FileTest, WriteFileAtomicReplacesTargetAndLeavesNoTmp) {
  const std::string path = TestDir() + "/ATOMIC";
  ASSERT_TRUE(WriteFileAtomic(path, "first version\n").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.value(), "second\n");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace onion::storage

// CRC32C known answers and kernel equivalence: the dispatched Crc32c (the
// SSE4.2 kernel on CPUs that have it) must match the table-driven
// Crc32cPortable bit for bit at every length and alignment, and both must
// produce the published CRC32C bitstream, because segment pages, WAL
// records, the batch journal and wire frames all store it.

#include "storage/crc32c.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace onion::storage {
namespace {

using Kernel = uint32_t (*)(uint32_t, const uint8_t*, size_t);

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

class Crc32cKernelTest : public ::testing::TestWithParam<Kernel> {};

TEST_P(Crc32cKernelTest, MatchesRfc3720KnownAnswers) {
  const Kernel crc = GetParam();
  // RFC 3720 section B.4 test vectors.
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(crc(0, buf.data(), buf.size()), 0x8A9136AAu);
  buf.assign(32, 0xFF);
  EXPECT_EQ(crc(0, buf.data(), buf.size()), 0x62A8AB43u);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc(0, buf.data(), buf.size()), 0x46DD794Eu);
  for (int i = 0; i < 32; ++i) buf[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(crc(0, buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST_P(Crc32cKernelTest, MatchesCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(GetParam()(0, reinterpret_cast<const uint8_t*>(check.data()),
                       check.size()),
            0xE3069283u);
}

INSTANTIATE_TEST_SUITE_P(Kernels, Crc32cKernelTest,
                         ::testing::Values<Kernel>(&Crc32c, &Crc32cPortable),
                         [](const ::testing::TestParamInfo<Kernel>& info) {
                           return info.index == 0 ? "Dispatched" : "Portable";
                         });

TEST(Crc32cTest, DispatchedEqualsPortableAtEveryLengthAndOffset) {
  // Offsets 0..7 put the 8-byte loads at every alignment; lengths up to
  // 1024 cover every tail length many times over.
  const std::vector<uint8_t> bytes = RandomBytes(1024 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      ASSERT_EQ(Crc32c(bytes.data() + offset, n),
                Crc32cPortable(0, bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DispatchedEqualsPortableOnPageAndFrameSizes) {
  // A 6 KiB segment page and a 24 KiB response frame, each also checked
  // from an odd start and a non-zero initial crc.
  for (const size_t n : {size_t{6} << 10, size_t{24} << 10}) {
    const std::vector<uint8_t> bytes = RandomBytes(n + 1, n);
    EXPECT_EQ(Crc32c(bytes.data(), n), Crc32cPortable(0, bytes.data(), n));
    EXPECT_EQ(Crc32c(0x12345678u, bytes.data() + 1, n),
              Crc32cPortable(0x12345678u, bytes.data() + 1, n));
  }
}

TEST(Crc32cTest, ChainingEqualsOneShotAtEverySplit) {
  // WAL replay checksums a record's prefix and its rest in two calls.
  const std::vector<uint8_t> bytes = RandomBytes(300, 29);
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32c(bytes.data(), split);
    ASSERT_EQ(Crc32c(head, bytes.data() + split, bytes.size() - split), whole)
        << "split " << split;
    ASSERT_EQ(Crc32cPortable(Crc32cPortable(0, bytes.data(), split),
                             bytes.data() + split, bytes.size() - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace onion::storage

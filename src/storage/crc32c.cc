#include "storage/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ONION_CRC32C_HAVE_SSE42_KERNEL 1
#include <immintrin.h>
#endif

namespace onion::storage {
namespace {

constexpr uint32_t kPolyReflected = 0x82F63B78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if defined(ONION_CRC32C_HAVE_SSE42_KERNEL)
bool DetectSse42() { return __builtin_cpu_supports("sse4.2") != 0; }

// The `crc32` instruction computes the same reflected Castagnoli update as
// the table loop, 8 bytes per step. Loads go through memcpy: callers pass
// buffers at any alignment (a WAL record tail, a frame body at offset 8).
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc,
                                                      const uint8_t* data,
                                                      size_t n) {
  uint64_t state = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto state32 = static_cast<uint32_t>(state);
  for (; n > 0; ++data, --n) state32 = _mm_crc32_u8(state32, *data);
  return ~state32;
}
#endif

}  // namespace

bool HasSse42() {
#if defined(ONION_CRC32C_HAVE_SSE42_KERNEL)
  static const bool cached = DetectSse42();
  return cached;
#else
  return false;
#endif
}

uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t n) {
  // Built once, thread-safe per the C++ static-initialization rules.
  static const std::array<uint32_t, 256> table = BuildTable();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t n) {
#if defined(ONION_CRC32C_HAVE_SSE42_KERNEL)
  if (HasSse42()) return Crc32cSse42(crc, data, n);
#endif
  return Crc32cPortable(crc, data, n);
}

}  // namespace onion::storage

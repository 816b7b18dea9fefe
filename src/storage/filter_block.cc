#include "storage/filter_block.h"

#include <utility>

#include "storage/codec.h"

namespace onion::storage {
namespace {

/// Odd multipliers that spread the low hash bits across the eight words of
/// a block (the constants popularized by Parquet's split-block filter).
constexpr uint32_t kBlockSalts[8] = {
    0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
    0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U,
};

/// splitmix64 finalizer: a full-avalanche 64-bit mix of the key.
uint64_t HashKey(Key key) {
  uint64_t h = key + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Block index for a hash: multiply-shift of the high 32 bits, uniform
/// over [0, num_blocks) without a modulo.
size_t BlockOf(uint64_t hash, size_t num_blocks) {
  return static_cast<size_t>(
      ((hash >> 32) * static_cast<uint64_t>(num_blocks)) >> 32);
}

/// Bit position of word `w` for the low 32 hash bits: top 5 bits of a
/// salted multiply.
uint32_t BitOf(uint32_t hash32, int w) {
  return (hash32 * kBlockSalts[w]) >> 27;
}

}  // namespace

BloomFilterBuilder::BloomFilterBuilder(uint32_t bits_per_key)
    : bits_per_key_(bits_per_key) {}

void BloomFilterBuilder::AddKey(Key key) {
  if (bits_per_key_ == 0) return;
  hashes_.push_back(HashKey(key));
}

std::vector<uint8_t> BloomFilterBuilder::Finish() {
  // Moving out leaves hashes_ empty and without capacity.
  const std::vector<uint64_t> hashes = std::move(hashes_);
  if (bits_per_key_ == 0 || hashes.empty()) return {};
  const uint64_t bits =
      static_cast<uint64_t>(hashes.size()) * bits_per_key_;
  uint64_t bytes = (bits + 7) / 8;
  bytes = ((bytes + kBloomBlockBytes - 1) / kBloomBlockBytes) *
          kBloomBlockBytes;
  if (bytes < kBloomBlockBytes) bytes = kBloomBlockBytes;
  std::vector<uint8_t> out(bytes, 0);
  const size_t num_blocks = bytes / kBloomBlockBytes;
  for (const uint64_t hash : hashes) {
    uint8_t* block = out.data() + BlockOf(hash, num_blocks) * kBloomBlockBytes;
    const auto hash32 = static_cast<uint32_t>(hash);
    for (int w = 0; w < 8; ++w) {
      const uint32_t word = GetU32(block + w * 4);
      PutU32(block + w * 4, word | (1U << BitOf(hash32, w)));
    }
  }
  return out;
}

bool BloomMayContain(const uint8_t* data, size_t size, Key key) {
  if (data == nullptr || size == 0) return true;
  const size_t num_blocks = size / kBloomBlockBytes;
  if (num_blocks == 0) return true;
  const uint64_t hash = HashKey(key);
  const uint8_t* block = data + BlockOf(hash, num_blocks) * kBloomBlockBytes;
  const auto hash32 = static_cast<uint32_t>(hash);
  for (int w = 0; w < 8; ++w) {
    const uint32_t word = GetU32(block + w * 4);
    if ((word & (1U << BitOf(hash32, w))) == 0) return false;
  }
  return true;
}

}  // namespace onion::storage

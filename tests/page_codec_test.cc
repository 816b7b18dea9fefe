// Property-style tests for the segment page codecs and the split-block
// bloom filter: random sorted pages (with duplicate keys, max-u64 keys,
// single-entry and full pages) must round-trip byte-exactly through every
// codec; malformed buffers must be rejected, not crash; the bloom filter
// must have zero false negatives and a sane false-positive rate at the
// default bits-per-key budget.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/filter_block.h"
#include "storage/page_codec.h"

namespace onion::storage {
namespace {

const PageCodec kAllCodecs[] = {PageCodec::kRaw, PageCodec::kDeltaVarint,
                                PageCodec::kBitpack};
std::vector<Entry> RoundTrip(PageCodec codec,
                             const std::vector<Entry>& entries) {
  std::vector<uint8_t> bytes;
  EncodePage(codec, entries, &bytes);
  std::vector<Entry> decoded;
  EXPECT_TRUE(DecodePage(codec, bytes.data(), bytes.size(), entries.size(),
                         &decoded))
      << PageCodecName(codec);
  return decoded;
}

TEST(PageCodecTest, NamesRoundTrip) {
  for (const PageCodec codec : kAllCodecs) {
    PageCodec parsed;
    ASSERT_TRUE(ParsePageCodec(PageCodecName(codec), &parsed));
    EXPECT_EQ(parsed, codec);
    EXPECT_TRUE(PageCodecValid(static_cast<uint32_t>(codec)));
  }
  PageCodec parsed;
  EXPECT_FALSE(ParsePageCodec("snappy", &parsed));
  EXPECT_FALSE(PageCodecValid(77));
}

TEST(PageCodecTest, RandomSortedPagesRoundTrip) {
  Rng rng(101);
  for (int round = 0; round < 200; ++round) {
    // Mixed page shapes: tiny through "full" (256), keys with duplicates,
    // random seq stamps (tombstone bits included).
    const size_t count = 1 + rng.UniformInclusive(255);
    std::vector<Entry> entries;
    entries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      entries.push_back(Entry{rng.UniformInclusive(~0ull),
                              rng.UniformInclusive(~0ull),
                              rng.UniformInclusive(~0ull)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    // Force duplicate keys into some rounds.
    if (round % 3 == 0 && count > 2) {
      entries[count / 2].key = entries[count / 2 - 1].key;
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
    }
    for (const PageCodec codec : kAllCodecs) {
      EXPECT_EQ(RoundTrip(codec, entries), entries);
    }
  }
}

TEST(PageCodecTest, EdgeShapedPagesRoundTrip) {
  const std::vector<std::vector<Entry>> pages = {
      {},                            // empty page
      {{0, 0, 0}},                   // single minimal entry
      {{~0ull, ~0ull, ~0ull}},       // single max-u64 entry
      {{~0ull, 1, PackSeq(1, false)},
       {~0ull, 2, PackSeq(2, true)},
       {~0ull, 3, PackSeq(3, false)}},       // duplicate max keys
      {{0, ~0ull, 0}, {~0ull, 0, ~0ull}},    // full-range delta
      {{5, 5, 2}, {5, 6, 4}, {5, 7, 7}, {5, 8, 9}},  // all-duplicate page
  };
  for (const auto& page : pages) {
    for (const PageCodec codec : kAllCodecs) {
      EXPECT_EQ(RoundTrip(codec, page), page);
    }
  }
  // Tombstone bits survive the packed stamp.
  EXPECT_TRUE(IsTombstone(PackSeq(7, true)));
  EXPECT_FALSE(IsTombstone(PackSeq(7, false)));
  EXPECT_EQ(SequenceOf(PackSeq(7, true)), 7u);
}

TEST(PageCodecTest, DenseKeysCompress) {
  // The motivating case: consecutive curve keys (a perfectly clustered
  // run) shrink to a fraction of the raw 24 bytes per entry.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 256; ++i) {
    entries.push_back({1000 + i, i, PackSeq(i + 1, false)});
  }
  std::vector<uint8_t> raw_bytes;
  EncodePage(PageCodec::kRaw, entries, &raw_bytes);
  std::vector<uint8_t> delta_bytes;
  EncodePage(PageCodec::kDeltaVarint, entries, &delta_bytes);
  EXPECT_EQ(raw_bytes.size(), 256 * kEntryBytesV3);
  EXPECT_LT(delta_bytes.size() * 3, raw_bytes.size());
  EXPECT_EQ(RoundTrip(PageCodec::kDeltaVarint, entries), entries);
}

TEST(PageCodecTest, BitpackCompressesAndValidates) {
  // Clustered keys + small payloads + consecutive seqs: every column packs
  // to a narrow width, far below both raw and the varint encoding.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 256; ++i) {
    entries.push_back({1000 + i, i, PackSeq(i + 1, false)});
  }
  std::vector<uint8_t> packed;
  EncodePage(PageCodec::kBitpack, entries, &packed);
  EXPECT_LT(packed.size() * 4, 256 * kEntryBytesV3);
  EXPECT_EQ(RoundTrip(PageCodec::kBitpack, entries), entries);

  // A constant column costs zero stream bytes: single-key pages pack to
  // the header alone.
  std::vector<Entry> constant(200, Entry{42, 7, PackSeq(9, false)});
  packed.clear();
  EncodePage(PageCodec::kBitpack, constant, &packed);
  EXPECT_EQ(packed.size(), 27u);  // 3 width bytes + 3 u64 bases
  EXPECT_EQ(RoundTrip(PageCodec::kBitpack, constant), constant);

  // Trailing garbage and truncation are both size mismatches.
  packed.push_back(0);
  std::vector<Entry> decoded;
  EXPECT_FALSE(DecodePage(PageCodec::kBitpack, packed.data(), packed.size(),
                          constant.size(), &decoded));
  // A width byte past 64 can never be valid.
  std::vector<uint8_t> bad;
  EncodePage(PageCodec::kBitpack, entries, &bad);
  bad[0] = 65;
  EXPECT_FALSE(DecodePage(PageCodec::kBitpack, bad.data(), bad.size(),
                          entries.size(), &decoded));
  // Max-u64 keys round-trip at the top of the range...
  std::vector<Entry> high{{~0ull - 1, 0, 0}, {~0ull, 0, 0}};
  EXPECT_EQ(RoundTrip(PageCodec::kBitpack, high), high);
  // ...and a stored delta that would wrap a key past 2^64 is rejected as
  // corruption, not wrapped. Hand-crafted page: key_base = ~0ull with a
  // 1-bit key column whose second delta is 1.
  bad.clear();
  EncodePage(PageCodec::kBitpack, high, &bad);
  for (int i = 0; i < 8; ++i) bad[3 + i] = 0xff;  // key_base := ~0ull
  EXPECT_FALSE(DecodePage(PageCodec::kBitpack, bad.data(), bad.size(),
                          high.size(), &decoded));
}

TEST(PageCodecTest, MalformedBuffersRejected) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 16; ++i) {
    entries.push_back({i * 1000, i, PackSeq(i + 1, i % 5 == 0)});
  }
  std::vector<Entry> decoded;
  for (const PageCodec codec : kAllCodecs) {
    std::vector<uint8_t> bytes;
    EncodePage(codec, entries, &bytes);
    // Truncation: every strict prefix must fail for the declared count.
    EXPECT_FALSE(DecodePage(codec, bytes.data(), bytes.size() - 1,
                            entries.size(), &decoded));
    EXPECT_FALSE(DecodePage(codec, bytes.data(), 0, entries.size(), &decoded));
    // Trailing bytes after the last entry are corruption too.
    bytes.push_back(0);
    EXPECT_FALSE(DecodePage(codec, bytes.data(), bytes.size(), entries.size(),
                            &decoded))
        << PageCodecName(codec);
  }
  // Varints that run past 64 bits (11 continuation bytes) are rejected.
  const std::vector<uint8_t> overflow(16, 0xff);
  EXPECT_FALSE(DecodePage(PageCodec::kDeltaVarint, overflow.data(),
                          overflow.size(), 1, &decoded));
}

TEST(FilterBlockTest, NoFalseNegatives) {
  Rng rng(202);
  BloomFilterBuilder builder(10);
  std::vector<Key> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(rng.UniformInclusive(~0ull));
    builder.AddKey(keys.back());
  }
  const std::vector<uint8_t> filter = builder.Finish();
  ASSERT_FALSE(filter.empty());
  EXPECT_EQ(filter.size() % kBloomBlockBytes, 0u);
  for (const Key key : keys) {
    EXPECT_TRUE(BloomMayContain(filter.data(), filter.size(), key));
  }
}

TEST(FilterBlockTest, FalsePositiveRateIsSane) {
  Rng rng(203);
  BloomFilterBuilder builder(10);
  std::unordered_set<Key> present;
  while (present.size() < 4000) {
    const Key key = rng.UniformInclusive(~0ull);
    if (present.insert(key).second) builder.AddKey(key);
  }
  const std::vector<uint8_t> filter = builder.Finish();
  uint64_t false_positives = 0;
  uint64_t probes = 0;
  while (probes < 20000) {
    const Key key = rng.UniformInclusive(~0ull);
    if (present.count(key) > 0) continue;
    ++probes;
    if (BloomMayContain(filter.data(), filter.size(), key)) {
      ++false_positives;
    }
  }
  // Split-block filters at 10 bits/key sit near 1% FPR; 5% is a loose
  // regression bound, not a tuning target.
  EXPECT_LT(static_cast<double>(false_positives), 0.05 * probes)
      << false_positives << " false positives in " << probes << " probes";
}

TEST(FilterBlockTest, DisabledAndEmptyFiltersSayMaybe) {
  BloomFilterBuilder disabled(0);
  disabled.AddKey(7);
  EXPECT_TRUE(disabled.Finish().empty());
  BloomFilterBuilder empty(10);
  EXPECT_TRUE(empty.Finish().empty());
  EXPECT_TRUE(BloomMayContain(nullptr, 0, 42));
}

}  // namespace
}  // namespace onion::storage

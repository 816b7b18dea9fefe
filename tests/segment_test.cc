// Tests for the on-disk segment format: write -> reopen round trips
// (including empty and single-page segments), fence-index correctness,
// header validation of corrupted files and of every version this build
// does not write, agreement with the in-memory page source on identical
// data, codec round trips, bloom-filter probes, and zone-map pruning.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sfc/registry.h"
#include "storage/codec.h"
#include "storage/mem_source.h"
#include "storage/segment.h"

namespace onion::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::unique_ptr<SegmentReader> WriteAndOpen(const std::string& name,
                                            const std::vector<Entry>& entries,
                                            uint32_t entries_per_page) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  SegmentWriter writer(path, entries_per_page);
  for (const Entry& entry : entries) {
    EXPECT_TRUE(writer.Add(entry.key, entry.payload, entry.seq).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  auto reader = SegmentReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).value();
}

std::vector<Entry> ReadAll(const SegmentReader& reader) {
  std::vector<Entry> all;
  std::vector<Entry> page;
  for (uint64_t p = 0; p < reader.num_pages(); ++p) {
    const Status status = reader.ReadPage(p, &page);
    EXPECT_TRUE(status.ok()) << status.ToString();
    all.insert(all.end(), page.begin(), page.end());
  }
  return all;
}

TEST(SegmentTest, RoundTripMultiPage) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 1000; ++i) entries.push_back({i * 3, i});
  auto reader = WriteAndOpen("seg_multi.sfc", entries, 16);
  EXPECT_EQ(reader->num_entries(), 1000u);
  EXPECT_EQ(reader->num_pages(), (1000u + 15) / 16);
  EXPECT_EQ(reader->min_key(), 0u);
  EXPECT_EQ(reader->max_key(), 999u * 3);
  EXPECT_EQ(ReadAll(*reader), entries);
}

TEST(SegmentTest, RoundTripEmpty) {
  auto reader = WriteAndOpen("seg_empty.sfc", {}, 8);
  EXPECT_EQ(reader->num_entries(), 0u);
  EXPECT_EQ(reader->num_pages(), 0u);
  EXPECT_EQ(reader->PageOf(0), 0u);
}

TEST(SegmentTest, RoundTripSinglePartialPage) {
  const std::vector<Entry> entries = {{7, 100}, {9, 200}, {9, 201}};
  auto reader = WriteAndOpen("seg_single.sfc", entries, 8);
  EXPECT_EQ(reader->num_entries(), 3u);
  EXPECT_EQ(reader->num_pages(), 1u);
  EXPECT_EQ(reader->first_key(0), 7u);
  EXPECT_EQ(reader->last_key(0), 9u);
  EXPECT_EQ(ReadAll(*reader), entries);
}

TEST(SegmentTest, FencesMatchPageContents) {
  Rng rng(7);
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 500; ++i) {
    entries.push_back({rng.UniformInclusive(10000), i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  auto reader = WriteAndOpen("seg_fence.sfc", entries, 7);
  std::vector<Entry> page;
  for (uint64_t p = 0; p < reader->num_pages(); ++p) {
    ASSERT_TRUE(reader->ReadPage(p, &page).ok());
    EXPECT_EQ(reader->first_key(p), page.front().key);
    EXPECT_EQ(reader->last_key(p), page.back().key);
  }
}

TEST(SegmentTest, PageOfAgreesWithMemSource) {
  Rng rng(11);
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 300; ++i) {
    entries.push_back({rng.UniformInclusive(999), i});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  auto reader = WriteAndOpen("seg_pageof.sfc", entries, 9);
  const MemPageSource mem(entries, 9);
  for (Key key = 0; key <= 1005; ++key) {
    ASSERT_EQ(reader->PageOf(key), mem.PageOf(key)) << "key " << key;
  }
}

TEST(SegmentTest, OpenRejectsMissingFile) {
  auto result = SegmentReader::Open(TempPath("does_not_exist.sfc"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SegmentTest, OpenRejectsBadMagic) {
  const std::string path = TempPath("seg_badmagic.sfc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[128] = "this is not a segment file at all, sorry";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  auto result = SegmentReader::Open(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentTest, OpenRejectsCorruptedHeader) {
  const std::vector<Entry> entries = {{1, 1}, {2, 2}, {3, 3}};
  auto reader = WriteAndOpen("seg_corrupt.sfc", entries, 2);
  reader.reset();
  // Flip a byte inside the entry-count field.
  const std::string path = TempPath("seg_corrupt.sfc");
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 16, SEEK_SET);
  const uint8_t bogus = 0xff;
  std::fwrite(&bogus, 1, 1, f);
  std::fclose(f);
  auto result = SegmentReader::Open(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SegmentTest, AbandonedWriterLeavesNoFile) {
  const std::string path = TempPath("seg_abandoned.sfc");
  {
    SegmentWriter writer(path, 4);
    EXPECT_TRUE(writer.Add(1, 1).ok());
    // No Finish().
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(SegmentTest, DeltaVarintSegmentRoundTripsAndShrinks) {
  Rng rng(13);
  std::vector<Entry> entries;
  Key key = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    key += rng.UniformInclusive(5);  // dense, with duplicates
    entries.push_back({key, i});
  }
  const std::string raw_path = TempPath("seg_codec_raw.sfc");
  const std::string delta_path = TempPath("seg_codec_delta.sfc");
  for (const auto& [path, codec] :
       {std::pair<std::string, PageCodec>{raw_path, PageCodec::kRaw},
        {delta_path, PageCodec::kDeltaVarint}}) {
    std::remove(path.c_str());
    SegmentWriterOptions options;
    options.entries_per_page = 64;
    options.codec = codec;
    SegmentWriter writer(path, options);
    for (const Entry& entry : entries) {
      ASSERT_TRUE(writer.Add(entry.key, entry.payload).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
  }
  auto raw = SegmentReader::Open(raw_path);
  auto delta = SegmentReader::Open(delta_path);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta.value()->codec(), PageCodec::kDeltaVarint);
  // Byte-identical decoded entries, strictly fewer bytes on disk.
  EXPECT_EQ(ReadAll(*raw.value()), entries);
  EXPECT_EQ(ReadAll(*delta.value()), entries);
  EXPECT_LT(delta.value()->file_bytes(), raw.value()->file_bytes());
  for (uint64_t p = 0; p < delta.value()->num_pages(); ++p) {
    EXPECT_LT(delta.value()->PageDiskBytes(p),
              raw.value()->PageDiskBytes(p));
  }
}

TEST(SegmentTest, BloomFilterProbesHaveNoFalseNegatives) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 1000; ++i) entries.push_back({i * 7, i});
  auto reader = WriteAndOpen("seg_bloom.sfc", entries, 32);
  EXPECT_GT(reader->filter_bytes(), 0u);
  uint64_t negatives = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(reader->MayContainKey(i * 7));  // present: never negative
    if (!reader->MayContainKey(i * 7 + 3)) ++negatives;  // absent
  }
  // ~1% FPR at 10 bits/key: the overwhelming majority of absent probes
  // must be filtered out.
  EXPECT_GT(negatives, 900u);
}

TEST(SegmentTest, FilterDisabledWritesNoBloomBlock) {
  const std::string path = TempPath("seg_nofilter.sfc");
  std::remove(path.c_str());
  SegmentWriterOptions options;
  options.entries_per_page = 8;
  options.filter_bits_per_key = 0;
  SegmentWriter writer(path, options);
  for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(writer.Add(i, i).ok());
  ASSERT_TRUE(writer.Finish().ok());
  auto reader = SegmentReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value()->filter_bytes(), 0u);
  EXPECT_TRUE(reader.value()->MayContainKey(9999));  // no filter: maybe
}

TEST(SegmentTest, ZoneMapsPruneDisjointBoxes) {
  // Zone maps need a curve to map keys back to cells; brute-force check
  // PageMayIntersect against the actual page contents for random boxes.
  const Universe universe(2, 32);
  auto curve = MakeCurve("hilbert", universe).value();
  std::vector<Entry> entries;
  for (Key key = 0; key < universe.num_cells(); key += 3) {
    entries.push_back({key, key});
  }
  const std::string path = TempPath("seg_zones.sfc");
  std::remove(path.c_str());
  SegmentWriterOptions options;
  options.entries_per_page = 16;
  options.curve = curve.get();
  SegmentWriter writer(path, options);
  for (const Entry& entry : entries) {
    ASSERT_TRUE(writer.Add(entry.key, entry.payload).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  auto opened = SegmentReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto& reader = *opened.value();

  Rng rng(77);
  uint64_t pruned = 0;
  std::vector<Entry> page;
  for (int round = 0; round < 200; ++round) {
    const auto x = static_cast<Coord>(rng.UniformInclusive(31));
    const auto y = static_cast<Coord>(rng.UniformInclusive(31));
    const auto w = static_cast<Coord>(rng.UniformInclusive(7));
    const auto h = static_cast<Coord>(rng.UniformInclusive(7));
    const Box box(Cell(x, y), Cell(std::min<Coord>(31, x + w),
                                   std::min<Coord>(31, y + h)));
    for (uint64_t p = 0; p < reader.num_pages(); ++p) {
      if (reader.PageMayIntersect(p, box)) continue;
      ++pruned;
      // "Skippable" must be sound: no entry of the page is in the box.
      ASSERT_TRUE(reader.ReadPage(p, &page).ok());
      for (const Entry& entry : page) {
        EXPECT_FALSE(box.Contains(curve->CellAt(entry.key)))
            << "zone map pruned a page containing a box entry";
      }
    }
  }
  EXPECT_GT(pruned, 0u);  // the maps actually prune something
  // A mismatched dimensionality must disable pruning, not misprune.
  EXPECT_TRUE(reader.PageMayIntersect(0, Box(Cell(0, 0, 0), Cell(1, 1, 1))));
}

TEST(SegmentTest, SeqStampsRoundTripThroughSegments) {
  // Every entry's packed MVCC stamp (sequence + tombstone bit) must
  // survive the write -> reopen -> decode cycle under both codecs.
  Rng rng(41);
  std::vector<Entry> entries;
  Key key = 0;
  for (uint64_t i = 0; i < 700; ++i) {
    key += rng.UniformInclusive(4);
    entries.push_back({key, i, PackSeq(i + 1, i % 6 == 0)});
  }
  for (const PageCodec codec : {PageCodec::kRaw, PageCodec::kDeltaVarint,
                                PageCodec::kBitpack}) {
    const std::string path =
        TempPath(std::string("seg_seq_") + PageCodecName(codec) + ".sfc");
    std::remove(path.c_str());
    SegmentWriterOptions options;
    options.entries_per_page = 32;
    options.codec = codec;
    SegmentWriter writer(path, options);
    for (const Entry& entry : entries) {
      ASSERT_TRUE(writer.Add(entry.key, entry.payload, entry.seq).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    auto reader = SegmentReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(ReadAll(*reader.value()), entries);
  }
}

TEST(SegmentTest, BatchedReadPagesMatchesPerPageReads) {
  // ReadPages must deliver byte-identical pages to a ReadPage loop, for
  // every codec (variable page sizes stress the contiguous-span math) and
  // every run position/length.
  Rng rng(43);
  std::vector<Entry> entries;
  Key key = 0;
  for (uint64_t i = 0; i < 500; ++i) {
    key += rng.UniformInclusive(6);
    entries.push_back({key, i * 3, PackSeq(i + 1, i % 9 == 0)});
  }
  for (const PageCodec codec : {PageCodec::kRaw, PageCodec::kDeltaVarint,
                                PageCodec::kBitpack}) {
    const std::string path =
        TempPath(std::string("seg_batch_") + PageCodecName(codec) + ".sfc");
    std::remove(path.c_str());
    SegmentWriterOptions options;
    options.entries_per_page = 24;
    options.codec = codec;
    SegmentWriter writer(path, options);
    for (const Entry& entry : entries) {
      ASSERT_TRUE(writer.Add(entry.key, entry.payload, entry.seq).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    auto opened = SegmentReader::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const auto reader = std::move(opened).value();
    const uint64_t pages = reader->num_pages();
    for (uint64_t first = 0; first < pages; ++first) {
      for (uint64_t count = 1; count <= pages - first; ++count) {
        std::vector<std::vector<Entry>> batch;
        ASSERT_TRUE(reader->ReadPages(first, count, &batch).ok());
        ASSERT_EQ(batch.size(), count);
        for (uint64_t i = 0; i < count; ++i) {
          std::vector<Entry> single;
          ASSERT_TRUE(reader->ReadPage(first + i, &single).ok());
          ASSERT_EQ(batch[i], single)
              << PageCodecName(codec) << " page " << first + i;
        }
      }
    }
  }
}

TEST(SegmentTest, PageChecksumCatchesBitFlip) {
  // The per-page CRC32C: flipping a single bit inside page
  // data must surface as Status::Corruption from ReadPage — never as
  // silently wrong entries — while the header (and the other pages) stay
  // readable.
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 96; ++i) {
    entries.push_back({i * 5, i, PackSeq(i + 1, false)});
  }
  auto reader = WriteAndOpen("seg_bitflip.sfc", entries, 16);
  const uint64_t victim_bytes = reader->PageDiskBytes(2);
  reader.reset();  // release the file before mutating it

  const std::string path = TempPath("seg_bitflip.sfc");
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Page 2 starts at 96 (header) + pages 0 and 1; flip a bit mid-page.
  long offset = 96;
  for (uint64_t p = 0; p < 2; ++p) {
    offset += static_cast<long>(victim_bytes);  // raw pages: equal sizes
  }
  std::fseek(f, offset + 10, SEEK_SET);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  std::fseek(f, offset + 10, SEEK_SET);
  std::fputc(byte ^ 0x04, f);
  std::fclose(f);

  auto reopened = SegmentReader::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::vector<Entry> page;
  EXPECT_TRUE(reopened.value()->ReadPage(0, &page).ok());
  const Status corrupt = reopened.value()->ReadPage(2, &page);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kCorruption);
  EXPECT_NE(corrupt.ToString().find("checksum"), std::string::npos)
      << corrupt.ToString();
  EXPECT_TRUE(reopened.value()->ReadPage(3, &page).ok());
}

TEST(SegmentTest, OpenRejectsUnknownFutureVersion) {
  // A freshly written segment stamped with every version this build does
  // not write — the retired 1 and 2 and a future 9 — must be refused with
  // a Status that names the version, not just "bad file".
  const std::vector<Entry> entries = {{1, 1}, {2, 2}};
  const std::string path = TempPath("seg_future.sfc");
  for (const uint32_t version : {1u, 2u, 9u}) {
    WriteAndOpen("seg_future.sfc", entries, 4).reset();
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    uint8_t version_bytes[4];
    PutU32(version_bytes, version);
    std::fwrite(version_bytes, 1, 4, f);
    std::fclose(f);
    auto result = SegmentReader::Open(path);
    ASSERT_FALSE(result.ok()) << "version " << version;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().ToString().find(
                  "unsupported segment format version " +
                  std::to_string(version)),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(SegmentTest, OpenRejectsCorruptedCodecId) {
  const std::vector<Entry> entries = {{1, 1}, {2, 2}, {3, 3}};
  WriteAndOpen("seg_corrupt_codec.sfc", entries, 2).reset();
  const std::string path = TempPath("seg_corrupt_codec.sfc");
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 56, SEEK_SET);  // codec id field of the header
  const uint8_t bogus = 0x5a;
  std::fwrite(&bogus, 1, 1, f);
  std::fclose(f);
  auto result = SegmentReader::Open(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace onion::storage

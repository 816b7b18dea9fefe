#include "storage/memtable.h"

#include <algorithm>
#include <utility>

namespace onion::storage {

namespace {

/// ceil(log2(ceil(span / kNumShards))): the shift that maps a key to its
/// shard. span 0 means the full 64-bit key space.
int ShardShiftFor(Key key_span) {
  const Key width = key_span == 0 ? (~Key{0} / MemTable::kNumShards) + 1
                                  : (key_span - 1) / MemTable::kNumShards + 1;
  int shift = 0;
  while (shift < 64 && (Key{1} << shift) < width) ++shift;
  return shift;
}

}  // namespace

MemTable::MemTable(Key key_span)
    : shard_shift_(ShardShiftFor(key_span)),
      shards_(std::make_unique<Shard[]>(kNumShards)) {}

MemTable::MemTable(MemTable&& other) noexcept
    : shard_shift_(other.shard_shift_),
      shards_(std::move(other.shards_)),
      size_(other.size_.load(std::memory_order_acquire)),
      max_sequence_(other.max_sequence_.load(std::memory_order_acquire)) {
  other.size_.store(0, std::memory_order_release);
  other.max_sequence_.store(0, std::memory_order_release);
}

MemTable& MemTable::operator=(MemTable&& other) noexcept {
  if (this != &other) {
    shard_shift_ = other.shard_shift_;
    shards_ = std::move(other.shards_);
    size_.store(other.size_.load(std::memory_order_acquire),
                std::memory_order_release);
    max_sequence_.store(other.max_sequence_.load(std::memory_order_acquire),
                        std::memory_order_release);
    other.size_.store(0, std::memory_order_release);
    other.max_sequence_.store(0, std::memory_order_release);
  }
  return *this;
}

void MemTable::Insert(Key key, uint64_t payload, uint64_t seq) {
  Shard& shard = shards_[ShardOf(key)];
  {
    const MutexLock lock(shard.mu);
    shard.arena.Push(Entry{key, payload, seq});
  }
  size_.fetch_add(1, std::memory_order_release);
  // CAS-max: concurrent inserters may race, the larger sequence wins.
  const uint64_t sequence = SequenceOf(seq);
  uint64_t seen = max_sequence_.load(std::memory_order_relaxed);
  while (sequence > seen &&
         !max_sequence_.compare_exchange_weak(seen, sequence,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
  }
}

void MemTable::Clear() {
  for (size_t s = 0; s < kNumShards; ++s) {
    const MutexLock lock(shards_[s].mu);
    shards_[s].arena.Clear();
  }
  size_.store(0, std::memory_order_release);
  max_sequence_.store(0, std::memory_order_release);
}

bool MemTable::ContainsSequence(uint64_t sequence) const {
  for (size_t s = 0; s < kNumShards; ++s) {
    const Shard& shard = shards_[s];
    const MutexLock lock(shard.mu);
    bool found = false;
    shard.arena.ForEach([&](const Entry& entry) {
      if (SequenceOf(entry.seq) == sequence) found = true;
    });
    if (found) return true;
  }
  return false;
}

Status MemTable::FlushTo(SegmentWriter* writer) const {
  // Shard s holds strictly smaller keys than shard s+1, so sorting each
  // shard on its own and writing them in turn gives key order overall.
  // Only the copy runs under the shard's mutex.
  std::vector<Entry> sorted;
  for (size_t s = 0; s < kNumShards; ++s) {
    const Shard& shard = shards_[s];
    sorted.clear();
    {
      const MutexLock lock(shard.mu);
      sorted.reserve(shard.arena.size());
      shard.arena.ForEach([&](const Entry& entry) { sorted.push_back(entry); });
    }
    std::sort(sorted.begin(), sorted.end(), KeySeqLess);
    for (const Entry& entry : sorted) {
      const Status status = writer->Add(entry.key, entry.payload, entry.seq);
      if (!status.ok()) return status;
    }
  }
  return Status::OK();
}

}  // namespace onion::storage

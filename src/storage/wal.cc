#include "storage/wal.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "storage/codec.h"
#include "storage/crc32c.h"

namespace onion::storage {
namespace {

constexpr char kWalMagic[8] = {'O', 'S', 'F', 'C', 'W', 'A', 'L', '1'};
constexpr uint32_t kWalVersion = 2;  // the only version this build reads
constexpr uint64_t kWalHeaderBytes = 16;

// Record geometry (per-op layout: kWalOpBytes in wal.h).
constexpr uint64_t kRecordPrefixBytes = 12;  // u32 num_ops + u64 first_seq
constexpr uint64_t kRecordCrcBytes = 4;

}  // namespace

void EncodeWalOp(const WalOp& op, uint8_t* out) {
  out[0] = op.tombstone ? 1 : 0;
  PutU64(out + 1, op.key);
  PutU64(out + 9, op.tombstone ? 0 : op.payload);
}

WalOp DecodeWalOp(const uint8_t* in) {
  WalOp op;
  op.tombstone = in[0] != 0;
  op.key = GetU64(in + 1);
  op.payload = GetU64(in + 9);
  return op;
}

WalWriter::WalWriter(std::string path, File file)
    : path_(std::move(path)), file_(std::move(file)) {}

WalWriter::~WalWriter() = default;

Result<std::unique_ptr<WalWriter>> WalWriter::Create(std::string path) {
  auto file = File::Create(path);
  if (!file.ok()) return file.status();
  uint8_t header[kWalHeaderBytes] = {};
  std::memcpy(header, kWalMagic, sizeof(kWalMagic));
  PutU32(header + 8, kWalVersion);
  const Status status = file.value().Append(header, kWalHeaderBytes);
  if (!status.ok()) {
    file.value().Close();
    std::remove(path.c_str());
    return status;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(std::move(path), std::move(file).value()));
}

Status WalWriter::AppendBatch(const WalOp* ops, size_t count,
                              uint64_t first_sequence, uint64_t* out_record) {
  // Sticky failure: a failed write may have left a partial record at the
  // tail, and replay stops at the first torn record — so anything appended
  // after it would be acknowledged yet unrecoverable. Refuse instead.
  if (!status_.ok()) return status_;
  if (count == 0 || count > kMaxWalRecordOps) {
    return Status::InvalidArgument("WAL record needs 1.." +
                                   std::to_string(kMaxWalRecordOps) + " ops");
  }
  const obs::ScopedTimer append_timer(metrics_.append_us);
  std::vector<uint8_t>& record = record_scratch_;
  record.resize(kRecordPrefixBytes + count * kWalOpBytes + kRecordCrcBytes);
  PutU32(record.data(), static_cast<uint32_t>(count));
  PutU64(record.data() + 4, first_sequence);
  for (size_t i = 0; i < count; ++i) {
    EncodeWalOp(ops[i], record.data() + kRecordPrefixBytes + i * kWalOpBytes);
  }
  const size_t body = record.size() - kRecordCrcBytes;
  PutU32(record.data() + body, Crc32c(record.data(), body));
  const Status status = file_.Append(record.data(), record.size());
  if (!status.ok()) return status_ = status;
  ++num_records_;
  // Publish for SyncUpTo: record num_records_ has reached the OS.
  appended_record_.store(num_records_, std::memory_order_release);
  if (out_record != nullptr) *out_record = num_records_;
  return Status::OK();
}

Status WalWriter::Sync() {
  const obs::ScopedTimer fsync_timer(metrics_.fsync_us);
  return file_.Sync();
}

Status WalWriter::SyncUpTo(uint64_t record) {
  MutexLock lock(sync_mu_);
  for (;;) {
    // Durability first: a record covered by an earlier successful leader
    // fsync IS durable, even if a later fsync failed — only callers whose
    // records are genuinely not synced see the sticky error.
    if (synced_record_ >= record) return Status::OK();
    if (!sync_status_.ok()) return sync_status_;
    if (!sync_inflight_) break;  // become the leader
    sync_cv_.Wait(sync_mu_);
  }
  sync_inflight_ = true;
  // Everything appended so far rides this one fsync —
  // including records of followers currently blocking on sync_mu_.
  const uint64_t target = appended_record_.load(std::memory_order_acquire);
  const uint64_t synced_before = synced_record_;
  lock.Unlock();  // fsync outside the lock: followers can queue up behind it
  Status status;
  {
    const obs::ScopedTimer fsync_timer(metrics_.fsync_us);
    status = file_.Sync();
  }
  lock.Lock();
  sync_inflight_ = false;
  if (status.ok()) {
    synced_record_ = std::max(synced_record_, target);
    num_syncs_.fetch_add(1, std::memory_order_relaxed);
    // The group-commit win, observable: this ONE fsync covered every
    // record appended since the previous one.
    if (metrics_.commit_batch_records != nullptr &&
        synced_record_ > synced_before) {
      metrics_.commit_batch_records->Record(synced_record_ - synced_before);
    }
  } else if (sync_status_.ok()) {
    sync_status_ = status;
  }
  sync_cv_.NotifyAll();
  return status;
}

Result<uint64_t> ReplayWal(
    const std::string& path,
    const std::function<void(Key, uint64_t, uint64_t, bool)>& fn) {
  auto bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.value().data());
  const uint8_t* const end = p + bytes.value().size();
  if (end - p < static_cast<ptrdiff_t>(kWalHeaderBytes) ||
      std::memcmp(p, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption("short WAL header or bad WAL magic: " + path);
  }
  const uint32_t version = GetU32(p + 8);
  if (version != kWalVersion) {
    return Status::InvalidArgument(
        "unsupported WAL version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kWalVersion) +
        " only): " + path);
  }
  p += kWalHeaderBytes;
  uint64_t replayed = 0;
  // A short, oversized or corrupt record is the torn tail of an
  // interrupted append: stop there, keeping everything before it.
  while (end - p >= static_cast<ptrdiff_t>(kRecordPrefixBytes)) {
    const uint32_t num_ops = GetU32(p);
    if (num_ops == 0 || num_ops > kMaxWalRecordOps) break;
    const uint64_t first_sequence = GetU64(p + 4);
    const size_t body = kRecordPrefixBytes + num_ops * kWalOpBytes;
    if (static_cast<size_t>(end - p) < body + kRecordCrcBytes) break;
    if (GetU32(p + body) != Crc32c(p, body)) break;
    // The record is whole: surface every op — the all-or-nothing unit.
    for (uint32_t i = 0; i < num_ops; ++i) {
      const WalOp op = DecodeWalOp(p + kRecordPrefixBytes + i * kWalOpBytes);
      fn(op.key, op.payload, first_sequence + i, op.tombstone);
      ++replayed;
    }
    p += body + kRecordCrcBytes;
  }
  return replayed;
}

}  // namespace onion::storage

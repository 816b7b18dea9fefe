#include "replay.h"

#include <cstdio>

#include "index/decompose.h"
#include "storage/write_batch.h"
#include "wire_load.h"

namespace onion::e2e {

namespace {

const char* const kSpanNames[kNumSpanNames] = {
    "op.get",           "op.put",          "op.write",
    "op.box_query",     "op.index_query",  "op.check",
    "storage.get",      "storage.write",   "storage.cursor_open",
    "storage.cursor_drain", "secondary.open", "secondary.drain",
    "index.decompose",  "analysis.clustering", "sfc.encode",
};

/// Records one span for its lifetime; a null log records nothing.
class Scope {
 public:
  Scope(SpanLog* log, SpanName name, uint32_t parent, uint64_t op)
      : log_(log), handle_(log != nullptr ? log->Begin(name, parent, op) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->End(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint32_t handle() const { return handle_; }

 private:
  SpanLog* const log_;
  const uint32_t handle_;
};

Cell SwapXy(const Cell& cell) { return Cell(cell.y(), cell.x()); }

}  // namespace

uint32_t SpanLog::Begin(SpanName name, uint32_t parent, uint64_t op) {
  spans_.push_back(Span{name, parent, op, NowNs(), 0});
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::End(uint32_t handle) { spans_[handle - 1].end_ns = NowNs(); }

Status SpanLog::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::Internal("cannot write " + path);
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("[\n", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"span\":%zu,\"parent\":%u,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i == 0 ? "" : ",", i + 1, span.parent,
                 static_cast<unsigned long long>(span.op),
                 kSpanNames[span.name],
                 static_cast<unsigned long long>(span.start_ns - origin),
                 static_cast<unsigned long long>(span.end_ns - origin));
  }
  std::fputs("]\n", file);
  return std::fclose(file) == 0 ? Status::OK()
                                : Status::Internal("cannot write " + path);
}

Replayer::Replayer(storage::SfcDb* db, storage::SfcTable* table,
                   storage::SfcTable* index, Model* model)
    : db_(db),
      table_(table),
      index_(index),
      model_(model),
      table_clusters_(&table->curve()),
      index_clusters_(index != nullptr
                          ? std::make_unique<ClusteringEvaluator>(
                                &index->curve())
                          : nullptr) {}

ReplayResult Replayer::Run(const std::vector<Op>& ops,
                           const std::vector<Box>& boxes,
                           const std::vector<Expect>& expected, SpanLog* log,
                           uint64_t first_op) {
  ReplayResult result;
  const uint64_t start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ReplayOne(ops[i], boxes, expected, log, first_op + i, &result)) {
      ++result.failed;
    }
    ++result.ops;
  }
  result.seconds_ns = NowNs() - start;
  return result;
}

bool Replayer::ReplayOne(const Op& op, const std::vector<Box>& boxes,
                         const std::vector<Expect>& expected, SpanLog* log,
                         uint64_t id, ReplayResult* result) {
  if (op.kind == OpKind::kBoxQuery || op.kind == OpKind::kIndexQuery) {
    return Query(op, boxes[op.box], expected[op.box], log, id, result);
  }
  bool ok = false;
  if (op.kind == OpKind::kGet) {
    const uint32_t acked = model_->acked(op.cells[0]);
    const uint64_t ranges_before = table_->read_stats().ranges;
    Result<std::vector<uint64_t>> got = Status::Internal("not run");
    {
      const Scope root(log, kOpGet, 0, id);
      const Scope call(log, kStorageGet, root.handle(), id);
      got = table_->Get(op.cells[0]);
    }
    // A point is a one-cell box: one cluster, one key range.
    const uint64_t ranges = table_->read_stats().ranges - ranges_before;
    const uint64_t clusters =
        table_clusters_.Clustering(Box(op.cells[0], op.cells[0]));
    ++result->queries;
    result->clusters += clusters;
    result->ranges += ranges;
    ok = got.ok() && model_->CheckGet(op.cells[0], got.value(), acked) &&
         ranges == clusters;
  } else {
    std::array<uint64_t, kBatchPuts> payloads{};
    storage::WriteBatch batch;
    for (uint32_t i = 0; i < op.num_cells; ++i) {
      payloads[i] = model_->NewPut(op.cells[i]);
      batch.Put(kTable, op.cells[i], payloads[i]);
    }
    Status status;
    {
      const Scope root(log, op.kind == OpKind::kPut ? kOpPut : kOpWrite, 0, id);
      const Scope call(log, kStorageWrite, root.handle(), id);
      status = db_->Write(std::move(batch));
    }
    if (status.ok()) {
      for (uint32_t i = 0; i < op.num_cells; ++i) model_->AckPut(payloads[i]);
    }
    ok = status.ok();
  }
  // The cell -> key mapping every point op pays inside the engine.
  const Scope check(log, kOpCheck, 0, id);
  const Scope encode(log, kEncode, check.handle(), id);
  for (uint32_t i = 0; i < op.num_cells; ++i) {
    sink_ += table_->curve().IndexOf(op.cells[i]);
  }
  result->encoded_cells += op.num_cells;
  return ok;
}

bool Replayer::Query(const Op& op, const Box& box, const Expect& expected,
                     SpanLog* log, uint64_t id, ReplayResult* result) {
  const bool index_query = op.kind == OpKind::kIndexQuery;
  storage::SfcTable* scanned = index_query ? index_ : table_;
  const uint64_t ranges_before = scanned->read_stats().ranges;
  rows_.clear();
  Status status;
  {
    const Scope root(log, index_query ? kOpIndexQuery : kOpBoxQuery, 0, id);
    std::unique_ptr<Cursor> cursor;
    {
      const Scope open(log, index_query ? kSecondaryOpen : kCursorOpen,
                       root.handle(), id);
      cursor = index_query ? db_->NewIndexCursor(kTable, kIndex, box)
                           : table_->NewBoxCursor(box);
    }
    const Scope drain(log, index_query ? kSecondaryDrain : kCursorDrain,
                      root.handle(), id);
    for (; cursor->Valid(); cursor->Next()) rows_.push_back(cursor->entry());
    status = cursor->status();
    cursor.reset();
  }
  const uint64_t ranges = scanned->read_stats().ranges - ranges_before;
  (index_query ? result->index_rows : result->drained_entries) += rows_.size();

  const SpaceFillingCurve& curve = scanned->curve();
  const ClusteringEvaluator& evaluator =
      index_query ? *index_clusters_ : table_clusters_;
  uint64_t decomposed = 0;
  uint64_t clusters = 0;
  bool ordered = true;
  {
    const Scope check(log, kOpCheck, 0, id);
    {
      const Scope span(log, kDecompose, check.handle(), id);
      decomposed = DecomposeBox(curve, box).size();
    }
    {
      const Scope span(log, kClustering, check.handle(), id);
      clusters = evaluator.Clustering(box);
    }
    const Scope span(log, kEncode, check.handle(), id);
    Key previous = 0;
    for (const SpatialEntry& row : rows_) {
      const Key key = curve.IndexOf(index_query ? SwapXy(row.cell) : row.cell);
      ordered = ordered && key >= previous;
      previous = key;
    }
  }
  result->encoded_cells += rows_.size();
  ++result->queries;
  result->clusters += clusters;
  result->ranges += ranges;

  // Everything this thread wrote is acknowledged, so the expectation is
  // exact: the preloaded rows plus every acknowledged write in the box.
  const Box base_box = index_query ? Transpose(box) : box;
  RowTally tally;
  for (const SpatialEntry& row : rows_) {
    tally.Add(*model_, base_box, row.cell, row.payload);
  }
  return status.ok() && ordered && tally.ok && tally.base == expected &&
         tally.writes == model_->AckedInBox(base_box) &&
         ranges == clusters && decomposed == clusters;
}

}  // namespace onion::e2e

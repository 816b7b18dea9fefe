// The traced run's in-process replay: the bench thread executes ops
// directly against the engine's public functions, wrapping every call in
// a span (name, start, end, parent, op id). Spans stay in memory and are
// written out as JSON at exit.
//
// Each op yields two root spans sharing its op id:
//   op.<kind>  the engine calls a server makes to serve the op (its
//              children: storage.get, storage.write, storage.cursor_open
//              + storage.cursor_drain, or secondary.open +
//              secondary.drain);
//   op.check   the bench's own per-op work (children: index.decompose,
//              analysis.clustering, sfc.encode), kept out of op.<kind> so
//              that span approximates the server's execution time.

#ifndef ONION_BENCH_E2E_REPLAY_H_
#define ONION_BENCH_E2E_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/clustering.h"
#include "common/status.h"
#include "storage/sfc_db.h"
#include "workload.h"

namespace onion::e2e {

enum SpanName : uint16_t {
  kOpGet,
  kOpPut,
  kOpWrite,
  kOpBoxQuery,
  kOpIndexQuery,
  kOpCheck,
  kStorageGet,
  kStorageWrite,
  kCursorOpen,
  kCursorDrain,
  kSecondaryOpen,
  kSecondaryDrain,
  kDecompose,
  kClustering,
  kEncode,
  kNumSpanNames,
};

/// The op.<kind> roots (not op.check and not the layer spans).
inline bool IsOpRoot(SpanName name) { return name < kOpCheck; }

struct Span {
  SpanName name;
  uint32_t parent;  // handle of the parent span, 0 for a root
  uint64_t op;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// In-memory span store. Handles are 1-based indexes into spans().
class SpanLog {
 public:
  /// Reserving up front keeps vector growth out of the recorded spans.
  void Reserve(size_t spans) { spans_.reserve(spans); }
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t op);
  void End(uint32_t handle);
  const std::vector<Span>& spans() const { return spans_; }
  Status WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Totals of one replay pass.
struct ReplayResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t seconds_ns = 0;
  uint64_t encoded_cells = 0;
  uint64_t drained_entries = 0;  // storage.cursor_drain
  uint64_t index_rows = 0;       // secondary.drain
  uint64_t queries = 0;          // box and index queries
  uint64_t clusters = 0;         // ClusteringNumber summed over them
  uint64_t ranges = 0;           // ranges the engine decomposed them into
};

class Replayer {
 public:
  /// `index` is the secondary index table, or null when there is none.
  Replayer(storage::SfcDb* db, storage::SfcTable* table,
           storage::SfcTable* index, Model* model);

  /// Executes `ops` in order; query ops index `boxes` / `expected`.
  /// `log` null runs the same calls without recording spans. `first_op`
  /// numbers the ops in the log.
  ReplayResult Run(const std::vector<Op>& ops, const std::vector<Box>& boxes,
                   const std::vector<Expect>& expected, SpanLog* log,
                   uint64_t first_op);

 private:
  bool ReplayOne(const Op& op, const std::vector<Box>& boxes,
                 const std::vector<Expect>& expected, SpanLog* log,
                 uint64_t id, ReplayResult* result);
  bool Query(const Op& op, const Box& box, const Expect& expected,
             SpanLog* log, uint64_t id, ReplayResult* result);

  storage::SfcDb* const db_;
  storage::SfcTable* const table_;
  storage::SfcTable* const index_;
  Model* const model_;
  const ClusteringEvaluator table_clusters_;
  const std::unique_ptr<ClusteringEvaluator> index_clusters_;
  std::vector<SpatialEntry> rows_;
  uint64_t sink_ = 0;  // keeps the encoded keys observable
};

}  // namespace onion::e2e

#endif  // ONION_BENCH_E2E_REPLAY_H_

// Workloads of the end-to-end benchmark: the dataset each one loads, the
// op stream it serves, and the in-bench model every served result is
// checked against. bench/e2e/README.md says why each workload exists.

#ifndef ONION_BENCH_E2E_WORKLOAD_H_
#define ONION_BENCH_E2E_WORKLOAD_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sfc/types.h"

namespace onion::e2e {

/// Every table is keyed by the onion curve over [0, kSide)^2.
inline constexpr Coord kSide = 1024;
inline constexpr char kTable[] = "t";
/// ingest_indexed's secondary index: swap_xy cells under Hilbert.
inline constexpr char kIndex[] = "by_swap";
inline constexpr size_t kBatchPuts = 8;
/// Distinct query boxes per run; ops draw from this pool so every
/// expected result is computed once, during setup.
inline constexpr size_t kBoxPool = 8192;

enum class OpKind : uint8_t { kGet, kPut, kWrite, kBoxQuery, kIndexQuery };

struct WorkloadSpec {
  const char* name;
  uint64_t points;
  uint64_t pool_pages;
  uint64_t readahead_pages;
  uint64_t memtable_flush_entries;
  bool secondary_index;
  Coord query_side;  // side of the query cubes (0: the mix has none)
  uint32_t write_percent;
  OpKind read_kind;
  OpKind write_kind;
  /// Frozen open-loop offered rate in ops/s, a share of the seed
  /// commit's median saturation throughput (README.md, "Workloads").
  double open_loop_rate;
};

/// nullptr for unknown names.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Derives an independent stream seed for one purpose of a run.
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

struct Op {
  OpKind kind = OpKind::kGet;
  uint32_t box = 0;  // query ops: index into the box pool
  uint32_t num_cells = 0;
  std::array<Cell, kBatchPuts> cells;
};

/// The seeded op stream of a workload: the same seed yields the same ops.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), rng_(seed) {}
  Op Next();

 private:
  Cell RandomCell();

  const WorkloadSpec& spec_;
  Rng rng_;
};

struct Expect {
  uint64_t count = 0;
  uint64_t sum = 0;
  bool operator==(const Expect& o) const {
    return count == o.count && sum == o.sum;
  }
};

/// The bench's own copy of what the server must return. Preloaded rows
/// carry payload = their index (point(i)); a write carries a payload
/// that encodes its cell and a per-process counter (bit 63 set), so any
/// returned row can be validated in O(1) and a row set is summarized by
/// (count, sum of RowHash(payload)). Safe to share between the load
/// generator's threads: what writes record is kept in atomic counters.
class Model {
 public:
  explicit Model(const std::vector<Cell>& points);

  size_t num_points() const { return point_ids_.size(); }
  Cell point(size_t i) const { return CellOf(point_ids_[i]); }
  static uint64_t RowHash(uint64_t payload);
  static size_t CellId(const Cell& cell) {
    return static_cast<size_t>(cell.x()) * kSide + cell.y();
  }
  static Cell CellOf(size_t id) {
    return Cell(static_cast<Coord>(id / kSide), static_cast<Coord>(id % kSide));
  }

  /// Preloaded rows inside `box`, O(volume).
  Expect BaseInBox(const Box& box) const;
  /// Acknowledged writes inside `box`, O(volume).
  Expect AckedInBox(const Box& box) const;

  /// A fresh payload for a write to `cell`.
  uint64_t NewPut(const Cell& cell);
  void AckPut(uint64_t payload);
  uint32_t acked(const Cell& cell) const { return acked_count_[CellId(cell)]; }
  uint64_t acked_total() const { return acked_total_; }

  /// Whether (cell, payload) is a row the server may return: a preloaded
  /// point at that cell or a write sent to it.
  bool ValidRow(const Cell& cell, uint64_t payload) const;
  static bool IsWrite(uint64_t payload) { return (payload >> 63) != 0; }

  /// A Get of `cell` must return exactly the preloaded rows plus between
  /// `acked_at_send` and all writes sent to that cell.
  bool CheckGet(const Cell& cell, const std::vector<uint64_t>& payloads,
                uint32_t acked_at_send) const;

 private:
  // Cell ids rather than Cells: 4 bytes per point keeps the per-row check
  // of a streamed result in cache.
  std::vector<uint32_t> point_ids_;
  std::vector<uint32_t> base_count_;
  std::vector<uint64_t> base_sum_;
  std::vector<std::atomic<uint32_t>> sent_count_;
  std::vector<std::atomic<uint32_t>> acked_count_;
  std::vector<std::atomic<uint64_t>> acked_sum_;
  std::atomic<uint64_t> next_put_ = 0;
  std::atomic<uint64_t> acked_total_ = 0;
};

/// Rows of every pool box accumulated while a query streams in.
struct RowTally {
  Expect base;
  Expect writes;
  bool ok = true;

  void Add(const Model& model, const Box& box, const Cell& cell,
           uint64_t payload);
};

/// The base-table box whose rows an index query on `index_box` returns
/// (swap_xy transposes axes 0 and 1).
Box Transpose(const Box& index_box);

}  // namespace onion::e2e

#endif  // ONION_BENCH_E2E_WORKLOAD_H_

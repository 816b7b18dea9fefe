#include "workload.h"

#include <algorithm>

namespace onion::e2e {

namespace {

// Open-loop rates are frozen here, not measured per run: a change that
// slows the server must face the same offered load as its parent. They
// are about a quarter of the seed commit's median saturation throughput,
// a tenth for ingest_indexed (README.md says why not half).
const WorkloadSpec kWorkloads[] = {
    {"point_hot", 200'000, 4096, 0, 64 * 1024, false, 0, 10, OpKind::kGet,
     OpKind::kPut, 12'000},
    {"box_cached", 1'000'000, 16384, 0, 64 * 1024, false, 32, 0,
     OpKind::kBoxQuery, OpKind::kBoxQuery, 1'000},
    {"box_spill", 1'000'000, 256, 8, 64 * 1024, false, 32, 0,
     OpKind::kBoxQuery, OpKind::kBoxQuery, 250},
    {"ingest_indexed", 200'000, 4096, 0, 16 * 1024, true, 16, 70,
     OpKind::kIndexQuery, OpKind::kWrite, 600},
};

constexpr uint64_t kWriteTag = 1ull << 63;
constexpr int kCellShift = 32;

/// Row count and payload-hash sum over the cells of `box`; `counts` and
/// `sums` are per-cell arrays of plain or atomic integers.
template <typename Count, typename Sum>
Expect SumInBox(const std::vector<Count>& counts, const std::vector<Sum>& sums,
                const Box& box) {
  Expect e;
  for (Coord x = box.lo.x(); x <= box.hi.x(); ++x) {
    for (Coord y = box.lo.y(); y <= box.hi.y(); ++y) {
      const size_t id = static_cast<size_t>(x) * kSide + y;
      e.count += counts[id];
      e.sum += sums[id];
    }
  }
  return e;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t state = seed ^ (purpose * 0xd1b54a32d192ed03ull);
  return SplitMix64(&state);
}

Cell OpStream::RandomCell() {
  const auto x = static_cast<Coord>(rng_.UniformInclusive(kSide - 1));
  const auto y = static_cast<Coord>(rng_.UniformInclusive(kSide - 1));
  return Cell(x, y);
}

Op OpStream::Next() {
  Op op;
  const bool write = rng_.UniformInclusive(99) < spec_.write_percent;
  op.kind = write ? spec_.write_kind : spec_.read_kind;
  switch (op.kind) {
    case OpKind::kGet:
    case OpKind::kPut:
      op.num_cells = 1;
      break;
    case OpKind::kWrite:
      op.num_cells = kBatchPuts;
      break;
    case OpKind::kBoxQuery:
    case OpKind::kIndexQuery:
      op.box = static_cast<uint32_t>(rng_.UniformInclusive(kBoxPool - 1));
      break;
  }
  for (uint32_t i = 0; i < op.num_cells; ++i) op.cells[i] = RandomCell();
  return op;
}

Model::Model(const std::vector<Cell>& points)
    : base_count_(size_t{kSide} * kSide, 0),
      base_sum_(size_t{kSide} * kSide, 0),
      sent_count_(size_t{kSide} * kSide),
      acked_count_(size_t{kSide} * kSide),
      acked_sum_(size_t{kSide} * kSide) {
  point_ids_.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t id = CellId(points[i]);
    point_ids_.push_back(static_cast<uint32_t>(id));
    ++base_count_[id];
    base_sum_[id] += RowHash(i);
  }
}

uint64_t Model::RowHash(uint64_t payload) {
  uint64_t state = payload;
  return SplitMix64(&state);
}

Expect Model::BaseInBox(const Box& box) const {
  return SumInBox(base_count_, base_sum_, box);
}

Expect Model::AckedInBox(const Box& box) const {
  return SumInBox(acked_count_, acked_sum_, box);
}

uint64_t Model::NewPut(const Cell& cell) {
  const size_t id = CellId(cell);
  ++sent_count_[id];
  return kWriteTag | (static_cast<uint64_t>(id) << kCellShift) |
         (next_put_++ & 0xffffffffull);
}

void Model::AckPut(uint64_t payload) {
  const size_t id = (payload & ~kWriteTag) >> kCellShift;
  ++acked_count_[id];
  acked_sum_[id] += RowHash(payload);
  ++acked_total_;
}

bool Model::ValidRow(const Cell& cell, uint64_t payload) const {
  if (!IsWrite(payload)) {
    return payload < point_ids_.size() && point_ids_[payload] == CellId(cell);
  }
  return ((payload & ~kWriteTag) >> kCellShift) == CellId(cell) &&
         (payload & 0xffffffffull) < next_put_;
}

bool Model::CheckGet(const Cell& cell, const std::vector<uint64_t>& payloads,
                     uint32_t acked_at_send) const {
  const size_t id = CellId(cell);
  Expect base;
  uint64_t writes = 0;
  for (const uint64_t payload : payloads) {
    if (!ValidRow(cell, payload)) return false;
    if (IsWrite(payload)) {
      ++writes;
    } else {
      ++base.count;
      base.sum += RowHash(payload);
    }
  }
  return base == Expect{base_count_[id], base_sum_[id]} &&
         writes >= acked_at_send && writes <= sent_count_[id];
}

void RowTally::Add(const Model& model, const Box& box, const Cell& cell,
                   uint64_t payload) {
  if (!box.Contains(cell) || !model.ValidRow(cell, payload)) {
    ok = false;
    return;
  }
  Expect& part = Model::IsWrite(payload) ? writes : base;
  ++part.count;
  part.sum += Model::RowHash(payload);
}

Box Transpose(const Box& index_box) {
  return Box(Cell(index_box.lo.y(), index_box.lo.x()),
             Cell(index_box.hi.y(), index_box.hi.x()));
}

}  // namespace onion::e2e

// Tests for query-box -> key-range decomposition: the hierarchical and
// cluster-scan algorithms must produce identical minimal range sets, whose
// cardinality is the clustering number and whose union is exactly the box.
// Also the DiskModel that prices those ranges as seeks.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/boxiter.h"
#include "common/rng.h"
#include "index/decompose.h"
#include "index/disk_model.h"
#include "sfc/registry.h"

namespace onion {
namespace {

void ExpectExactCover(const SpaceFillingCurve& curve, const Box& box,
                      const std::vector<KeyRange>& ranges) {
  std::set<Key> expected;
  ForEachCell(box, [&](const Cell& cell) {
    expected.insert(curve.IndexOf(cell));
  });
  std::set<Key> covered;
  for (const KeyRange& range : ranges) {
    for (Key key = range.lo; key <= range.hi; ++key) {
      ASSERT_TRUE(covered.insert(key).second) << "overlapping ranges";
    }
  }
  EXPECT_EQ(covered, expected);
}

TEST(MergeAdjacentRangesTest, MergesAndSorts) {
  std::vector<KeyRange> ranges = {{10, 12}, {0, 3}, {4, 5}, {13, 20}, {30, 30}};
  MergeAdjacentRanges(&ranges);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0], (KeyRange{0, 5}));
  EXPECT_EQ(ranges[1], (KeyRange{10, 20}));
  EXPECT_EQ(ranges[2], (KeyRange{30, 30}));
}

TEST(MergeAdjacentRangesTest, EmptyAndSingle) {
  std::vector<KeyRange> empty;
  MergeAdjacentRanges(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<KeyRange> single = {{5, 9}};
  MergeAdjacentRanges(&single);
  ASSERT_EQ(single.size(), 1u);
}

struct DecomposeCase {
  std::string name;
  int dims;
  Coord side;
};

class DecomposeProperty : public testing::TestWithParam<DecomposeCase> {};

TEST_P(DecomposeProperty, HierarchicalEqualsClusterScan) {
  const DecomposeCase& param = GetParam();
  auto curve = MakeCurve(param.name, Universe(param.dims, param.side)).value();
  ASSERT_TRUE(curve->has_contiguous_aligned_blocks());
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    Cell lo = Cell::Filled(param.dims, 0);
    Cell hi = Cell::Filled(param.dims, 0);
    for (int axis = 0; axis < param.dims; ++axis) {
      auto a = static_cast<Coord>(rng.UniformInclusive(param.side - 1));
      auto b = static_cast<Coord>(rng.UniformInclusive(param.side - 1));
      lo[axis] = std::min(a, b);
      hi[axis] = std::max(a, b);
    }
    const Box box(lo, hi);
    const auto hierarchical = DecomposeHierarchical(*curve, box);
    const auto scanned = DecomposeByClusterScan(*curve, box);
    ASSERT_EQ(hierarchical.size(), scanned.size()) << box.ToString();
    for (size_t i = 0; i < hierarchical.size(); ++i) {
      ASSERT_EQ(hierarchical[i], scanned[i]) << box.ToString();
    }
  }
}

TEST_P(DecomposeProperty, CoversExactlyTheBox) {
  const DecomposeCase& param = GetParam();
  auto curve = MakeCurve(param.name, Universe(param.dims, param.side)).value();
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    Cell lo = Cell::Filled(param.dims, 0);
    Cell hi = Cell::Filled(param.dims, 0);
    for (int axis = 0; axis < param.dims; ++axis) {
      auto a = static_cast<Coord>(rng.UniformInclusive(param.side - 1));
      auto b = static_cast<Coord>(rng.UniformInclusive(param.side - 1));
      lo[axis] = std::min(a, b);
      hi[axis] = std::max(a, b);
    }
    const Box box(lo, hi);
    ExpectExactCover(*curve, box, DecomposeBox(*curve, box));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitRecursiveCurves, DecomposeProperty,
    testing::Values(DecomposeCase{"zorder", 2, 16},
                    DecomposeCase{"graycode", 2, 16},
                    DecomposeCase{"hilbert", 2, 16},
                    DecomposeCase{"hilbert_nd", 2, 16},
                    DecomposeCase{"zorder", 3, 8},
                    DecomposeCase{"graycode", 3, 8},
                    DecomposeCase{"hilbert", 3, 8},
                    DecomposeCase{"peano", 2, 27},
                    DecomposeCase{"peano", 3, 9}),
    [](const testing::TestParamInfo<DecomposeCase>& info) {
      return info.param.name + "_" + std::to_string(info.param.dims) + "d";
    });

TEST(DecomposeTest, OnionQueriesDecomposeExactly) {
  auto curve = MakeCurve("onion", Universe(2, 10)).value();
  const Box box = Box::FromCornerAndLengths(Cell(2, 3), {5, 4});
  ExpectExactCover(*curve, box, DecomposeBox(*curve, box));
}

TEST(DecomposeTest, FullUniverseIsOneRange) {
  for (const std::string name : {"zorder", "hilbert", "onion"}) {
    auto curve = MakeCurve(name, Universe(2, 16)).value();
    const auto ranges = DecomposeBox(*curve, curve->universe().Bounds());
    ASSERT_EQ(ranges.size(), 1u) << name;
    EXPECT_EQ(ranges[0].lo, 0u);
    EXPECT_EQ(ranges[0].hi, curve->num_cells() - 1);
  }
}

TEST(DecomposeTest, SingleCell) {
  auto curve = MakeCurve("hilbert", Universe(2, 16)).value();
  const Box box = Box::FromCornerAndLengths(Cell(9, 4), {1, 1});
  const auto ranges = DecomposeBox(*curve, box);
  ASSERT_EQ(ranges.size(), 1u);
  const Key key = curve->IndexOf(Cell(9, 4));
  EXPECT_EQ(ranges[0], (KeyRange{key, key}));
}

TEST(DecomposeTest, Onion2DAnalyticMatchesClusterScan) {
  Rng rng(2718);
  for (const Coord side : {8u, 9u, 16u, 31u, 64u}) {
    auto result = Onion2D::Make(Universe(2, side));
    ASSERT_TRUE(result.ok());
    const auto& onion = *result.value();
    for (int trial = 0; trial < 60; ++trial) {
      auto a = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto b = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto c = static_cast<Coord>(rng.UniformInclusive(side - 1));
      auto d = static_cast<Coord>(rng.UniformInclusive(side - 1));
      const Box box(Cell(std::min(a, b), std::min(c, d)),
                    Cell(std::max(a, b), std::max(c, d)));
      const auto analytic = DecomposeOnion2DAnalytic(onion, box);
      const auto scanned = DecomposeByClusterScan(onion, box);
      ASSERT_EQ(analytic.size(), scanned.size())
          << "side " << side << " " << box.ToString();
      for (size_t i = 0; i < analytic.size(); ++i) {
        ASSERT_EQ(analytic[i], scanned[i])
            << "side " << side << " " << box.ToString();
      }
    }
  }
}

TEST(DecomposeTest, Onion2DAnalyticEdgeShapes) {
  auto onion = Onion2D::Make(Universe(2, 12)).value();
  const std::vector<Box> shapes = {
      Box(Cell(0, 0), Cell(11, 11)),   // whole universe
      Box(Cell(5, 5), Cell(6, 6)),     // center 2x2
      Box(Cell(0, 0), Cell(0, 0)),     // single corner cell
      Box(Cell(0, 0), Cell(11, 0)),    // bottom row
      Box(Cell(4, 0), Cell(4, 11)),    // full column
      Box(Cell(1, 1), Cell(10, 10)),   // all inner layers
      Box(Cell(0, 3), Cell(11, 8)),    // full-width band
  };
  for (const Box& box : shapes) {
    const auto analytic = DecomposeOnion2DAnalytic(*onion, box);
    const auto scanned = DecomposeByClusterScan(*onion, box);
    ASSERT_EQ(analytic, scanned) << box.ToString();
  }
}

TEST(DecomposeTest, DecomposeBoxRoutesOnion2DToAnalytic) {
  // DecomposeBox must produce identical results through the dispatcher.
  auto curve = MakeCurve("onion", Universe(2, 20)).value();
  const Box box = Box(Cell(2, 5), Cell(17, 11));
  EXPECT_EQ(DecomposeBox(*curve, box),
            DecomposeByClusterScan(*curve, box));
}

TEST(DecomposeTest, RangeCountEqualsClusteringNumber) {
  auto hilbert = MakeCurve("hilbert", Universe(2, 32)).value();
  auto onion = MakeCurve("onion", Universe(2, 32)).value();
  const Box box = Box::FromCornerAndLengths(Cell(3, 5), {20, 17});
  EXPECT_EQ(DecomposeBox(*hilbert, box).size(),
            ClusteringNumber(*hilbert, box));
  EXPECT_EQ(DecomposeBox(*onion, box).size(),
            ClusteringNumber(*onion, box));
}

TEST(DiskModelTest, LatencyEstimates) {
  const DiskModel hdd = DiskModel::Hdd();
  EXPECT_DOUBLE_EQ(hdd.EstimateMs(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(hdd.EstimateMs(2, 1000), 2 * 8.0 + 1.0);
  const DiskModel ssd = DiskModel::Ssd();
  // Seeks dominate on HDD much more than on SSD.
  EXPECT_GT(hdd.EstimateMs(10, 0) / ssd.EstimateMs(10, 0), 50.0);
}

TEST(DiskModelTest, FewerSeeksBeatManySeeks) {
  // Same data volume, different clustering: the curve with fewer clusters
  // wins under the disk model — the paper's core systems argument.
  const DiskModel disk = DiskModel::Hdd();
  const double few = disk.EstimateMs(2, 10000);
  const double many = disk.EstimateMs(40, 10000);
  EXPECT_LT(few, many);
}

}  // namespace
}  // namespace onion

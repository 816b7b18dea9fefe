// Quickstart: the 60-second tour of the onion-curve library.
//
//   build/examples/quickstart
//
// Creates curves, maps cells to keys and back, computes clustering numbers
// of a rectangular query under several curves, and runs one box query end
// to end against a one-table SfcDb in <temp dir>/onion_quickstart.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/clustering.h"
#include "sfc/registry.h"
#include "storage/sfc_db.h"
#include "workloads/generators.h"

int main() {
  using namespace onion;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "onion_quickstart").string();

  // 1. A 2D universe and the onion curve over it.
  const Universe universe(2, 256);
  auto onion = MakeCurve("onion", universe).value();

  const Cell cell(17, 42);
  const Key key = onion->IndexOf(cell);
  std::printf("onion curve: cell %s -> key %llu -> cell %s\n",
              cell.ToString().c_str(), static_cast<unsigned long long>(key),
              onion->CellAt(key).ToString().c_str());

  // 2. Clustering number of one query under several curves: the number of
  // contiguous key runs the query decomposes into (fewer = fewer disk
  // seeks when data is laid out along the curve).
  const Box query = Box::FromCornerAndLengths(Cell(10, 20), {200, 190});
  std::printf("\nclustering number of %s:\n", query.ToString().c_str());
  for (const std::string name :
       {"onion", "hilbert", "zorder", "graycode", "row_major"}) {
    auto curve = MakeCurve(name, universe).value();
    std::printf("  %-12s %llu clusters\n", name.c_str(),
                static_cast<unsigned long long>(
                    ClusteringNumber(*curve, query)));
  }

  // 3. A persistent table keyed by the onion curve: insert points, run the
  // box query through a cursor, and read back how many key ranges it
  // scanned (== the clustering number above) and how many seeks it cost.
  std::filesystem::remove_all(dir);
  storage::SfcDbOptions options;
  options.table_options.entries_per_page = 16;  // few ranges share a page
  auto db = storage::SfcDb::Open(dir, options);
  ONION_CHECK_MSG(db.ok(), db.status().ToString().c_str());
  auto table = db.value()->CreateTable("points", "onion", universe);
  ONION_CHECK_MSG(table.ok(), table.status().ToString().c_str());
  const auto points = RandomPoints(universe, 10000, /*seed=*/1);
  for (size_t i = 0; i < points.size(); ++i) {
    ONION_CHECK(table.value()->Insert(points[i], i).ok());
  }
  ONION_CHECK(table.value()->Flush().ok());

  table.value()->ResetStats();
  auto cursor = table.value()->NewBoxCursor(query);
  const auto results = DrainCursor(cursor.get());
  ONION_CHECK(cursor->status().ok());
  std::printf("\nonion table: %zu points in %s, %llu key ranges, %llu seeks\n",
              results.size(), query.ToString().c_str(),
              static_cast<unsigned long long>(
                  table.value()->read_stats().ranges),
              static_cast<unsigned long long>(
                  table.value()->io_stats().seeks));
  ONION_CHECK(db.value()->Close().ok());
  return 0;
}

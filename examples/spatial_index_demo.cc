// Spatial-index demo on skewed ("GPS-like") point data: loads the same
// clustered point set into a one-table SfcDb once per curve, runs the same
// range-query workloads against each, and reports the measured key ranges
// and seeks per query next to the DiskModel's HDD/SSD latency estimate.
//
// This is the paper's motivating application (Sec. I): the clustering
// number of the query box under the curve IS the number of key ranges the
// query scans, and on a cold pool over one compacted run each range costs
// at most one seek.
//
// The database lives in <temp dir>/onion_spatial_index_demo.
//
//   build/examples/spatial_index_demo [--side=1024] [--points=200000]
//                                     [--queries=200] [--query_side=64]

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.h"
#include "index/disk_model.h"
#include "storage/sfc_db.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  const CommandLine cli(argc, argv);
  const auto side = static_cast<Coord>(cli.GetInt("side", 1024));
  const auto num_points = static_cast<size_t>(cli.GetInt("points", 200000));
  const auto num_queries = static_cast<size_t>(cli.GetInt("queries", 200));
  const auto query_side =
      static_cast<Coord>(cli.GetInt("query_side", side / 16));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "onion_spatial_index_demo")
          .string();

  const Universe universe(2, side);
  // Skewed data: points concentrated around 32 "cities".
  const auto points =
      ClusteredPoints(universe, num_points, /*num_clusters=*/32,
                      /*spread=*/side / 16, /*seed=*/7);

  std::printf("spatial index demo: %zu clustered points on %ux%u grid\n",
              points.size(), side, side);

  // Two workloads: small "lookup" cubes, where all continuous curves are
  // near-optimal (paper Sec. V-D case I), and large "analytics" cubes,
  // where the onion curve's near-optimality separates it from the Hilbert
  // curve (Lemma 5).
  struct Workload {
    const char* label;
    std::vector<Box> queries;
  };
  const Workload workloads[] = {
      {"small", RandomCubes(universe, query_side, num_queries, 11)},
      {"large", RandomCubes(universe, static_cast<Coord>(side - side / 16),
                            num_queries, 11)},
  };

  // Small pages and a small pool keep the measurement near cold: most
  // pages a query touches are real reads. A seek is paid per run of
  // adjacent pages, so ranges whose data shares a page (or sits on the
  // next one) cost one seek together, and ranges without data cost none.
  storage::SfcDbOptions options;
  options.pool_pages = 64;
  options.table_options.entries_per_page = 16;
  std::filesystem::remove_all(dir);
  auto db = storage::SfcDb::Open(dir, options);
  ONION_CHECK_MSG(db.ok(), db.status().ToString().c_str());

  std::printf("\n%-12s %-6s %10s %10s %10s %10s %10s\n", "curve", "cubes",
              "rows/q", "ranges/q", "seeks/q", "HDD ms/q", "SSD ms/q");
  for (const std::string name :
       {"onion", "hilbert", "graycode", "zorder", "snake", "row_major"}) {
    auto table = db.value()->CreateTable(name, name, universe);
    if (!table.ok()) continue;  // curve unavailable at this side
    for (size_t i = 0; i < points.size(); ++i) {
      ONION_CHECK(table.value()->Insert(points[i], i).ok());
    }
    // One sorted run: each key range is one contiguous stretch of pages.
    ONION_CHECK(table.value()->Compact().ok());

    for (const Workload& workload : workloads) {
      table.value()->ResetStats();
      uint64_t rows = 0;
      for (const Box& query : workload.queries) {
        auto cursor = table.value()->NewBoxCursor(query);
        for (; cursor->Valid(); cursor->Next()) ++rows;
        ONION_CHECK(cursor->status().ok());
      }
      const double q = static_cast<double>(workload.queries.size());
      std::printf(
          "%-12s %-6s %10.1f %10.1f %10.1f %10.2f %10.3f\n", name.c_str(),
          workload.label, static_cast<double>(rows) / q,
          static_cast<double>(table.value()->read_stats().ranges) / q,
          static_cast<double>(table.value()->io_stats().seeks) / q,
          table.value()->EstimateCostMs(DiskModel::Hdd()) / q,
          table.value()->EstimateCostMs(DiskModel::Ssd()) / q);
    }
    ONION_CHECK(db.value()->DropTable(name).ok());
  }
  std::printf(
      "\n(ranges/q == average clustering number of the query box; seeks/q\n"
      " counts runs of adjacent pages read, so ranges whose data shares a\n"
      " page cost one seek together.)\n");
  ONION_CHECK(db.value()->Close().ok());
  return 0;
}

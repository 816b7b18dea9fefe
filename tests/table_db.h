// One SfcTable owned by an SfcDb of its own, for the suites that drive a
// single table. SfcDb is the only owner of a table; the db here is sized
// like a private table pool (256 pages, no readahead, one worker), so a
// test sees the same pool behaviour whichever table it builds.

#ifndef ONION_TESTS_TABLE_DB_H_
#define ONION_TESTS_TABLE_DB_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"
#include "storage/sfc_db.h"
#include "storage/sfc_table.h"

namespace onion::storage {

/// The name of the one table in a TableDb.
inline constexpr char kTableDbName[] = "t";

/// A database and its one open table. Dereferences like a pointer to the
/// table. Destroying it without Close() stops background work without a
/// flush — the crash semantics of SfcDb's (and SfcTable's) destructor.
struct TableDb {
  std::unique_ptr<SfcDb> db;
  SfcTable* table = nullptr;

  SfcTable& operator*() const { return *table; }
  SfcTable* operator->() const { return table; }
};

/// The table directory inside the database at `db_dir`.
inline std::string TableDbDir(const std::string& db_dir) {
  return db_dir + "/" + kTableDbName;
}

inline SfcDbOptions TableDbOptions(uint64_t pool_pages) {
  SfcDbOptions db_options;
  db_options.pool_pages = pool_pages;
  db_options.num_workers = 1;
  return db_options;
}

/// Opens (creating when absent) the database at `db_dir` and creates its
/// table keyed by `curve_name` over `universe`.
inline Result<TableDb> CreateTableDb(const std::string& db_dir,
                                     const std::string& curve_name,
                                     const Universe& universe,
                                     const SfcTableOptions& options = {},
                                     uint64_t pool_pages = 256) {
  auto db = SfcDb::Open(db_dir, TableDbOptions(pool_pages));
  if (!db.ok()) return db.status();
  auto table =
      db.value()->CreateTable(kTableDbName, curve_name, universe, options);
  if (!table.ok()) return table.status();
  return TableDb{std::move(db).value(), table.value()};
}

/// Opens the database at `db_dir` and its table (WAL replay included).
inline Result<TableDb> OpenTableDb(const std::string& db_dir,
                                   const SfcTableOptions& options = {},
                                   uint64_t pool_pages = 256) {
  auto db = SfcDb::Open(db_dir, TableDbOptions(pool_pages));
  if (!db.ok()) return db.status();
  auto table = db.value()->OpenTable(kTableDbName, options);
  if (!table.ok()) return table.status();
  return TableDb{std::move(db).value(), table.value()};
}

}  // namespace onion::storage

#endif  // ONION_TESTS_TABLE_DB_H_

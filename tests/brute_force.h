// Brute-force reference for spatial query tests: the inserted points
// filtered cell by cell with Box::Contains, in the canonical
// (curve key, payload) order. It shares nothing with the engine under
// test (no DecomposeBox, no memtable, no segments), so a decomposition
// bug cannot hide in both sides of a comparison.

#ifndef ONION_TESTS_BRUTE_FORCE_H_
#define ONION_TESTS_BRUTE_FORCE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sfc/curve.h"
#include "storage/cursor.h"

namespace onion {

using KeyedEntries = std::vector<std::pair<Key, uint64_t>>;

/// Canonical form of a query result: (curve key, payload) pairs, sorted.
inline KeyedEntries Canonical(const SpaceFillingCurve& curve,
                              const std::vector<SpatialEntry>& entries) {
  KeyedEntries out;
  out.reserve(entries.size());
  for (const SpatialEntry& entry : entries) {
    out.emplace_back(curve.IndexOf(entry.cell), entry.payload);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every point inside `box` in canonical form, where points[i] was
/// inserted with payload i.
inline KeyedEntries BruteForce(const SpaceFillingCurve& curve,
                               const std::vector<Cell>& points,
                               const Box& box) {
  KeyedEntries out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (box.Contains(points[i])) {
      out.emplace_back(curve.IndexOf(points[i]), i);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace onion

#endif  // ONION_TESTS_BRUTE_FORCE_H_

// Result checking against the generated dataset. Every value the benchmark
// writes is ValueKind::kAddress (value == row-major address of its point),
// so a result is checked point by point without the store's help, and its
// set of distinct points against a reference built from the dataset alone.
// Distinct points, because reads return one copy per fragment holding a
// cell until consolidation merges them.
#pragma once

#include <string>
#include <vector>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/shape.hpp"
#include "storage/fragment_store.hpp"

namespace perfbench {

/// The dataset's points as sorted row-major addresses.
class Reference {
 public:
  Reference(const artsparse::CoordBuffer& coords, artsparse::Shape shape);

  const artsparse::Shape& shape() const { return shape_; }
  std::size_t size() const { return addresses_.size(); }

  /// Sorted addresses of the dataset points inside `box`.
  std::vector<artsparse::index_t> in_box(const artsparse::Box& box) const;

  /// The subset of `sorted_queries` (sorted, distinct addresses) that are
  /// dataset points.
  std::vector<artsparse::index_t> in_set(
      const std::vector<artsparse::index_t>& sorted_queries) const;

 private:
  artsparse::Shape shape_;
  std::vector<artsparse::index_t> addresses_;
};

/// Empty when `result` is a correct scan of `box`: sorted by address,
/// every point inside the box with value == its address, and the distinct
/// points equal to the reference's. Otherwise, what is wrong.
std::string check_scan(const artsparse::ReadResult& result,
                       const artsparse::Box& box, const Reference& reference);

/// As check_scan, for a point read of `queries`.
std::string check_lookup(const artsparse::ReadResult& result,
                         const artsparse::CoordBuffer& queries,
                         const Reference& reference);

}  // namespace perfbench

#include "checker.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/linearize.hpp"

namespace perfbench {

using artsparse::index_t;

Reference::Reference(const artsparse::CoordBuffer& coords,
                     artsparse::Shape shape)
    : shape_(std::move(shape)),
      addresses_(artsparse::linearize_all(coords, shape_)) {
  std::sort(addresses_.begin(), addresses_.end());
  addresses_.erase(std::unique(addresses_.begin(), addresses_.end()),
                   addresses_.end());
}

std::vector<index_t> Reference::in_box(const artsparse::Box& box) const {
  std::vector<index_t> out;
  const std::size_t rank = shape_.rank();
  if (box.rank() != rank || rank == 0) return out;
  const auto strides = shape_.strides();
  // Odometer over every dimension but the last; the last one is a
  // contiguous address range found by binary search.
  std::vector<index_t> prefix(box.lo().begin(), box.lo().end());
  while (true) {
    index_t base = 0;
    for (std::size_t k = 0; k + 1 < rank; ++k) base += prefix[k] * strides[k];
    const auto first = std::lower_bound(addresses_.begin(), addresses_.end(),
                                        base + box.lo(rank - 1));
    const auto last =
        std::upper_bound(first, addresses_.end(), base + box.hi(rank - 1));
    out.insert(out.end(), first, last);
    std::size_t k = rank - 1;
    while (true) {
      if (k == 0) return out;
      --k;
      if (prefix[k] < box.hi(k)) {
        ++prefix[k];
        break;
      }
      prefix[k] = box.lo(k);
    }
  }
}

std::vector<index_t> Reference::in_set(
    const std::vector<index_t>& sorted_queries) const {
  std::vector<index_t> out;
  std::set_intersection(sorted_queries.begin(), sorted_queries.end(),
                        addresses_.begin(), addresses_.end(),
                        std::back_inserter(out));
  return out;
}

namespace {

/// Checks the per-point properties and collects the distinct addresses;
/// `inside` says whether an address belongs to the query.
template <typename Inside>
std::string check_points(const artsparse::ReadResult& result,
                         const artsparse::Shape& shape, Inside&& inside,
                         std::vector<index_t>& distinct) {
  const artsparse::CoordBuffer& coords = result.coords;
  if (coords.size() != result.values.size()) {
    return "result has " + std::to_string(coords.size()) + " points but " +
           std::to_string(result.values.size()) + " values";
  }
  if (!coords.empty() && coords.rank() != shape.rank()) {
    return "result rank " + std::to_string(coords.rank()) + " != " +
           std::to_string(shape.rank());
  }
  if (!result.skipped.empty()) {
    return "result skipped " + std::to_string(result.skipped.size()) +
           " fragments";
  }
  for (std::size_t i = 0; i < coords.size(); ++i) {
    index_t address = 0;
    try {
      address = artsparse::linearize(coords.point(i), shape);
    } catch (const artsparse::Error&) {
      return "point " + std::to_string(i) + " lies outside the tensor";
    }
    if (!distinct.empty() && address < distinct.back()) {
      return "point " + std::to_string(i) + " breaks address order";
    }
    if (!inside(coords.point(i), address)) {
      return "point " + std::to_string(i) + " (address " +
             std::to_string(address) + ") lies outside the query";
    }
    if (result.values[i] != static_cast<artsparse::value_t>(address)) {
      return "point " + std::to_string(i) + " has value " +
             std::to_string(result.values[i]) + ", expected its address " +
             std::to_string(address);
    }
    if (distinct.empty() || distinct.back() != address) {
      distinct.push_back(address);
    }
  }
  return {};
}

std::string compare_sets(const std::vector<index_t>& got,
                         const std::vector<index_t>& want) {
  if (got == want) return {};
  return "distinct points differ from the reference: got " +
         std::to_string(got.size()) + ", expected " +
         std::to_string(want.size());
}

}  // namespace

std::string check_scan(const artsparse::ReadResult& result,
                       const artsparse::Box& box, const Reference& reference) {
  std::vector<index_t> distinct;
  std::string error = check_points(
      result, reference.shape(),
      [&](std::span<const index_t> point, index_t) {
        return box.contains(point);
      },
      distinct);
  if (!error.empty()) return error;
  return compare_sets(distinct, reference.in_box(box));
}

std::string check_lookup(const artsparse::ReadResult& result,
                         const artsparse::CoordBuffer& queries,
                         const Reference& reference) {
  std::vector<index_t> wanted =
      artsparse::linearize_all(queries, reference.shape());
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
  std::vector<index_t> distinct;
  std::string error = check_points(
      result, reference.shape(),
      [&](std::span<const index_t>, index_t address) {
        return std::binary_search(wanted.begin(), wanted.end(), address);
      },
      distinct);
  if (!error.empty()) return error;
  return compare_sets(distinct, reference.in_set(wanted));
}

}  // namespace perfbench

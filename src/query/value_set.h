// Per-column query regions over dictionary codes.
//
// A ValueSet is the set R_i ⊆ [0, D_i) that a conjunction of predicates on
// column i allows (§5): kAll for wildcards, a contiguous [lo, hi] interval
// for =, <, <=, >, >= and BETWEEN, or an explicit sorted code set for IN /
// != and for intersections that fragment. This is the object progressive
// sampling masks model distributions with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/macros.h"

namespace naru {

class ValueSet {
 public:
  enum class Kind { kAll, kInterval, kSet };

  /// Wildcard over a domain of size `domain`.
  static ValueSet All(size_t domain);
  /// Closed interval [lo, hi]; an empty interval (hi < lo) is allowed and
  /// denotes the empty set.
  static ValueSet Interval(size_t domain, int64_t lo, int64_t hi);
  /// Explicit set; `codes` need not be sorted or deduped.
  static ValueSet Set(size_t domain, std::vector<int32_t> codes);
  /// The empty set.
  static ValueSet Empty(size_t domain);

  Kind kind() const { return kind_; }
  size_t domain() const { return domain_; }

  bool IsAll() const { return kind_ == Kind::kAll; }
  bool IsEmpty() const { return Count() == 0; }

  /// Number of codes in the set.
  size_t Count() const;

  /// Membership test.
  bool Contains(int32_t code) const;

  /// The k-th smallest code in the set (k < Count()); used for uniform
  /// sampling from query regions.
  int32_t NthCode(size_t k) const;

  /// Intersection with another set over the same domain.
  ValueSet Intersect(const ValueSet& other) const;

  /// Zeroes probs[c] for every code c outside this set; returns the
  /// remaining (pre-normalization) mass, summed in double over the kept
  /// entries in ascending index order. `probs` has `domain()` entries.
  double MaskProbs(float* probs) const;

  /// Interval bounds (only for kInterval).
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }
  /// Sorted unique codes (only for kSet).
  const std::vector<int32_t>& codes() const { return codes_; }

  std::string ToString() const;

 private:
  Kind kind_ = Kind::kAll;
  size_t domain_ = 0;
  int64_t lo_ = 0;
  int64_t hi_ = -1;
  std::vector<int32_t> codes_;
};

}  // namespace naru

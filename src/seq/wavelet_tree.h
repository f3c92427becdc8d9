// Static wavelet tree: access/rank/select over an integer sequence in
// O(log sigma) per operation. Pointerless level-wise layout: at every level
// each node's elements are stably partitioned in place by the current bit, so
// node boundaries can be recomputed during descent from rank queries alone.
//
// This is the static rank/select workhorse: it serves as the BWT occurrence
// structure of the FM-index and as the label string S of the static binary
// relation (Barbay et al. [4,5]).
#ifndef DYNDEX_SEQ_WAVELET_TREE_H_
#define DYNDEX_SEQ_WAVELET_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "bits/rank_select.h"

namespace dyndex {

/// Immutable sequence with rank/select/access, alphabet [0, sigma).
class WaveletTree {
 public:
  WaveletTree() = default;

  /// Builds over `data`; all values must be < sigma. O(n log sigma). `data`
  /// is consumed as the first level's working buffer: move it in when the
  /// caller is done with it.
  WaveletTree(std::vector<uint32_t> data, uint32_t sigma);

  uint64_t size() const { return size_; }
  uint32_t sigma() const { return sigma_; }

  /// Value at position i. O(log sigma).
  uint32_t Access(uint64_t i) const;

  /// Number of occurrences of c in [0, i). O(log sigma).
  uint64_t Rank(uint32_t c, uint64_t i) const;

  /// Position of the k-th (0-based) occurrence of c. Requires
  /// k < Rank(c, size()). O(log sigma).
  uint64_t Select(uint32_t c, uint64_t k) const;

  /// Returns {Access(i), Rank(Access(i), i)} in one descent — the LF-step
  /// primitive of the FM-index.
  std::pair<uint32_t, uint64_t> InverseSelect(uint64_t i) const;

  /// Total occurrences of c.
  uint64_t Count(uint32_t c) const { return Rank(c, size_); }

  uint64_t SpaceBytes() const;

 private:
  std::vector<RankSelect> levels_;
  uint64_t size_ = 0;
  uint32_t sigma_ = 0;
  uint32_t depth_ = 0;

  uint64_t SelectRec(uint32_t level, uint64_t node_s, uint64_t node_e,
                     uint32_t c, uint64_t k) const;
};

}  // namespace dyndex

#endif  // DYNDEX_SEQ_WAVELET_TREE_H_

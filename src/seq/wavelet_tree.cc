#include "seq/wavelet_tree.h"

#include <utility>

#include "util/check.h"

namespace dyndex {

WaveletTree::WaveletTree(std::vector<uint32_t> data, uint32_t sigma) {
  DYNDEX_CHECK(sigma >= 1);
  size_ = data.size();
  sigma_ = sigma;
  depth_ = CeilLog2(sigma);
  if (depth_ == 0) return;  // unary alphabet: answered arithmetically
  levels_.resize(depth_);
  std::vector<uint32_t> cur = std::move(data);
  std::vector<uint32_t> next(cur.size());
  std::vector<uint64_t> bounds{0, size_};
  for (uint32_t level = 0; level < depth_; ++level) {
    uint32_t shift = depth_ - 1 - level;
    BitVector bv(size_);
    std::vector<uint64_t> next_bounds;
    next_bounds.reserve(bounds.size() * 2);
    for (size_t b = 0; b + 1 < bounds.size(); ++b) {
      uint64_t s = bounds[b], e = bounds[b + 1];
      // Stable partition of [s, e) by the current bit.
      uint64_t out0 = s;
      for (uint64_t i = s; i < e; ++i) {
        if (((cur[i] >> shift) & 1) == 0) ++out0;
      }
      uint64_t split = out0;
      uint64_t out1 = out0;
      out0 = s;
      for (uint64_t i = s; i < e; ++i) {
        uint32_t bit = (cur[i] >> shift) & 1;
        bv.Set(i, bit);
        if (bit == 0) {
          next[out0++] = cur[i];
        } else {
          next[out1++] = cur[i];
        }
      }
      next_bounds.push_back(s);
      next_bounds.push_back(split);
    }
    next_bounds.push_back(size_);
    levels_[level].Build(std::move(bv));
    cur.swap(next);
    bounds.swap(next_bounds);
  }
}

uint32_t WaveletTree::Access(uint64_t i) const {
  DYNDEX_DCHECK(i < size_);
  if (depth_ == 0) return 0;
  uint64_t s = 0, e = size_;
  uint32_t c = 0;
  for (uint32_t level = 0; level < depth_; ++level) {
    const RankSelect& rs = levels_[level];
    uint64_t z_before_s = rs.Rank0(s);
    uint64_t z_in = rs.Rank0(e) - z_before_s;
    bool bit = rs.Get(i);
    c = (c << 1) | (bit ? 1 : 0);
    if (!bit) {
      i = s + (rs.Rank0(i) - z_before_s);
      e = s + z_in;
    } else {
      i = s + z_in + (rs.Rank1(i) - (s - z_before_s));
      s = s + z_in;
    }
  }
  return c;
}

uint64_t WaveletTree::Rank(uint32_t c, uint64_t i) const {
  DYNDEX_DCHECK(i <= size_);
  DYNDEX_DCHECK(c < sigma_);
  if (depth_ == 0) return i;
  uint64_t s = 0, e = size_;
  for (uint32_t level = 0; level < depth_; ++level) {
    const RankSelect& rs = levels_[level];
    uint64_t z_before_s = rs.Rank0(s);
    uint64_t z_in = rs.Rank0(e) - z_before_s;
    uint32_t bit = (c >> (depth_ - 1 - level)) & 1;
    if (bit == 0) {
      i = s + (rs.Rank0(i) - z_before_s);
      e = s + z_in;
    } else {
      i = s + z_in + (rs.Rank1(i) - (s - z_before_s));
      s = s + z_in;
    }
    if (s == e) return 0;
  }
  return i - s;
}

std::pair<uint32_t, uint64_t> WaveletTree::InverseSelect(uint64_t i) const {
  DYNDEX_DCHECK(i < size_);
  if (depth_ == 0) return {0, i};
  uint64_t s = 0, e = size_;
  uint32_t c = 0;
  for (uint32_t level = 0; level < depth_; ++level) {
    const RankSelect& rs = levels_[level];
    uint64_t z_before_s = rs.Rank0(s);
    uint64_t z_in = rs.Rank0(e) - z_before_s;
    bool bit = rs.Get(i);
    c = (c << 1) | (bit ? 1 : 0);
    if (!bit) {
      i = s + (rs.Rank0(i) - z_before_s);
      e = s + z_in;
    } else {
      i = s + z_in + (rs.Rank1(i) - (s - z_before_s));
      s = s + z_in;
    }
  }
  return {c, i - s};
}

uint64_t WaveletTree::SelectRec(uint32_t level, uint64_t node_s,
                                uint64_t node_e,
                                uint32_t c, uint64_t k) const {
  if (level == depth_) return node_s + k;
  const RankSelect& rs = levels_[level];
  uint64_t z_before_s = rs.Rank0(node_s);
  uint64_t z_in = rs.Rank0(node_e) - z_before_s;
  uint32_t bit = (c >> (depth_ - 1 - level)) & 1;
  if (bit == 0) {
    uint64_t p = SelectRec(level + 1, node_s, node_s + z_in, c, k);
    uint64_t rel = p - node_s;  // index among this node's zeros
    return rs.Select0(z_before_s + rel);
  }
  uint64_t ones_before_s = node_s - z_before_s;
  uint64_t p = SelectRec(level + 1, node_s + z_in, node_e, c, k);
  uint64_t rel = p - (node_s + z_in);
  return rs.Select1(ones_before_s + rel);
}

uint64_t WaveletTree::Select(uint32_t c, uint64_t k) const {
  DYNDEX_DCHECK(c < sigma_);
  if (depth_ == 0) return k;
  return SelectRec(0, 0, size_, c, k);
}

uint64_t WaveletTree::SpaceBytes() const {
  uint64_t total = 0;
  for (const auto& level : levels_) total += level.SpaceBytes();
  return total;
}

}  // namespace dyndex

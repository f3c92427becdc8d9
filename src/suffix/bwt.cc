#include "suffix/bwt.h"

#include "util/check.h"

namespace dyndex {

template <typename Idx>
std::vector<uint32_t> BwtFromSuffixArray(const std::vector<uint32_t>& text,
                                         const std::vector<Idx>& sa) {
  uint64_t n = text.size();
  DYNDEX_CHECK(sa.size() == n);
  std::vector<uint32_t> bwt(n);
  for (uint64_t i = 0; i < n; ++i) {
    bwt[i] = sa[i] == 0 ? text[n - 1] : text[sa[i] - 1];
  }
  return bwt;
}

template std::vector<uint32_t> BwtFromSuffixArray(const std::vector<uint32_t>&,
                                                  const std::vector<uint32_t>&);
template std::vector<uint32_t> BwtFromSuffixArray(const std::vector<uint32_t>&,
                                                  const std::vector<uint64_t>&);

std::vector<uint32_t> InverseBwt(const std::vector<uint32_t>& bwt,
                                 uint32_t sigma) {
  uint64_t n = bwt.size();
  // C[c] = number of symbols < c.
  std::vector<uint64_t> count(sigma + 1, 0);
  for (uint32_t c : bwt) ++count[c + 1];
  for (uint32_t c = 1; c <= sigma; ++c) count[c] += count[c - 1];
  // LF mapping.
  std::vector<uint64_t> lf(n);
  std::vector<uint64_t> seen(sigma, 0);
  for (uint64_t i = 0; i < n; ++i) {
    lf[i] = count[bwt[i]] + seen[bwt[i]];
    ++seen[bwt[i]];
  }
  // Walk backwards from the sentinel row (row 0 holds the suffix "0"; its BWT
  // symbol is the last real symbol of the text).
  std::vector<uint32_t> text(n);
  text[n - 1] = 0;
  uint64_t row = 0;
  for (uint64_t k = 1; k < n; ++k) {
    text[n - 1 - k] = bwt[row];
    row = lf[row];
  }
  return text;
}

}  // namespace dyndex

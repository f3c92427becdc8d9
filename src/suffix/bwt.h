// Burrows-Wheeler transform helpers built on the suffix array.
#ifndef DYNDEX_SUFFIX_BWT_H_
#define DYNDEX_SUFFIX_BWT_H_

#include <cstdint>
#include <vector>

namespace dyndex {

/// BWT of `text` given its suffix array: bwt[i] = text[(sa[i]+n-1) mod n].
/// The sentinel symbol (0, at text[n-1]) appears exactly once in the output.
/// `Idx` is the SA entry type of BuildSuffixArray (uint32_t or uint64_t).
template <typename Idx>
std::vector<uint32_t> BwtFromSuffixArray(const std::vector<uint32_t>& text,
                                         const std::vector<Idx>& sa);

/// Inverts a BWT produced over a 0-sentinel-terminated text; returns the
/// original text (including the trailing sentinel). Used by tests.
std::vector<uint32_t> InverseBwt(const std::vector<uint32_t>& bwt,
                                 uint32_t sigma);

}  // namespace dyndex

#endif  // DYNDEX_SUFFIX_BWT_H_

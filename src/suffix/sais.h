// SA-IS suffix array construction for integer alphabets, O(n) time.
// The construction backbone of every static index in the library.
#ifndef DYNDEX_SUFFIX_SAIS_H_
#define DYNDEX_SUFFIX_SAIS_H_

#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

namespace dyndex {

/// Builds the suffix array of `text`, with entries of type `Idx` (uint32_t
/// or uint64_t; callers take uint32_t whenever text.size() < 2^32).
///
/// Requirements: text is non-empty, its last symbol is 0, 0 occurs nowhere
/// else, and all symbols are < `sigma`; text.size() fits in `Idx`. Returns SA
/// with SA[0] = n-1 (the sentinel suffix).
///
/// Workspace: the returned SA is the only n-entry buffer — the reduced
/// problem of every recursion level is named, gathered and solved inside it.
/// Beside it live one L/S-type bit per symbol per level (< 2n bits in all)
/// and one level's bucket array: sigma entries at the top, at most n/2
/// below. So a 32-bit build peaks below 4n B + n/4 B + 4 max(sigma, n/2) B;
/// on Markov text it peaks at 4.6 B/symbol (tests/build_memory_test.cc).
template <typename Idx>
std::vector<Idx> BuildSuffixArray(const std::vector<uint32_t>& text,
                                  uint32_t sigma);

/// Returns fn(sa) for the suffix array of `text` at the narrowest width that
/// fits: uint32_t below 2^32 symbols, else uint64_t. `sa` is passed by value,
/// so fn owns the buffer and may overwrite it (e.g. with the BWT).
template <typename Fn>
decltype(auto) WithSuffixArray(const std::vector<uint32_t>& text,
                               uint32_t sigma, Fn&& fn) {
  if (text.size() <= std::numeric_limits<uint32_t>::max()) {
    return fn(BuildSuffixArray<uint32_t>(text, sigma));
  }
  return fn(BuildSuffixArray<uint64_t>(text, sigma));
}

/// An SA buffer whose entries were overwritten with symbols, as a symbol
/// sequence: the 32-bit buffer itself, or a narrowed copy of a 64-bit one.
template <typename Idx>
std::vector<uint32_t> IntoSymbols(std::vector<Idx> buf) {
  if constexpr (std::is_same_v<Idx, uint32_t>) {
    return buf;
  } else {
    return std::vector<uint32_t>(buf.begin(), buf.end());
  }
}

}  // namespace dyndex

#endif  // DYNDEX_SUFFIX_SAIS_H_

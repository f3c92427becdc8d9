#include "suffix/sais.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace dyndex {

namespace {

// Generic SA-IS over a sequence `s` of length n >= 2 with alphabet [0, K);
// the last element must be the unique smallest ("sentinel") element. `sa` is
// the only O(n) buffer: the reduced problem is named and solved inside it.
template <typename Idx, typename Sym>
void SaIs(const Sym* s, Idx* sa, Idx n, Idx K) {
  constexpr Idx kEmpty = std::numeric_limits<Idx>::max();
  // Classify suffixes: true = S-type, false = L-type.
  std::vector<bool> is_s(n);
  is_s[n - 1] = true;
  for (Idx i = n - 1; i-- > 0;) {
    is_s[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
  }
  auto is_lms = [&](Idx i) { return i > 0 && is_s[i] && !is_s[i - 1]; };

  std::vector<Idx> bkt(K);
  auto bucket_bounds = [&](bool ends) {
    std::fill(bkt.begin(), bkt.end(), Idx{0});
    for (Idx i = 0; i < n; ++i) ++bkt[s[i]];
    Idx sum = 0;
    for (Idx c = 0; c < K; ++c) {
      sum += bkt[c];
      bkt[c] = ends ? sum : sum - bkt[c];
    }
  };

  auto induce = [&]() {
    // Induce L-type suffixes left to right.
    bucket_bounds(/*ends=*/false);
    for (Idx i = 0; i < n; ++i) {
      Idx j = sa[i];
      if (j != kEmpty && j > 0 && !is_s[j - 1]) sa[bkt[s[j - 1]]++] = j - 1;
    }
    // Induce S-type suffixes right to left.
    bucket_bounds(/*ends=*/true);
    for (Idx i = n; i-- > 0;) {
      Idx j = sa[i];
      if (j != kEmpty && j > 0 && is_s[j - 1]) sa[--bkt[s[j - 1]]] = j - 1;
    }
  };

  // Stage 1: LMS suffixes at their bucket ends in any order, then induce.
  std::fill(sa, sa + n, kEmpty);
  bucket_bounds(/*ends=*/true);
  for (Idx i = 1; i < n; ++i) {
    if (is_lms(i)) sa[--bkt[s[i]]] = i;
  }
  induce();

  // Compact the sorted LMS substrings into sa[0, n_lms).
  Idx n_lms = 0;
  for (Idx i = 0; i < n; ++i) {
    if (sa[i] != kEmpty && is_lms(sa[i])) sa[n_lms++] = sa[i];
  }
  DYNDEX_DCHECK(2 * n_lms <= n);

  // Name LMS substrings. LMS positions are at least 2 apart, so the name of
  // the one at p fits in the free slot sa[n_lms + p/2].
  std::fill(sa + n_lms, sa + n, kEmpty);
  Idx names = 0;
  Idx prev = kEmpty;
  for (Idx idx = 0; idx < n_lms; ++idx) {
    Idx cur = sa[idx];
    bool differ = prev == kEmpty;
    // Compare the LMS substrings starting at prev and cur.
    for (Idx d = 0; !differ; ++d) {
      differ = s[prev + d] != s[cur + d] || is_s[prev + d] != is_s[cur + d];
      if (!differ && d > 0 && (is_lms(prev + d) || is_lms(cur + d))) {
        differ = !(is_lms(prev + d) && is_lms(cur + d));
        break;
      }
    }
    names += differ;
    if (differ) prev = cur;
    sa[n_lms + cur / 2] = names - 1;
  }

  // Gather the reduced problem (names in text order) into the tail of sa.
  Idx* reduced = sa + n - n_lms;
  for (Idx i = n, k = n; i-- > n_lms;) {
    if (sa[i] != kEmpty) sa[--k] = sa[i];
  }

  // Solve it in sa[0, n_lms), with this level's buckets released meanwhile.
  bkt = std::vector<Idx>();
  if (names < n_lms) {
    SaIs<Idx, Idx>(reduced, sa, n_lms, names);
  } else {
    for (Idx i = 0; i < n_lms; ++i) sa[reduced[i]] = i;
  }
  bkt.resize(K);

  // Map reduced ranks to text positions via the LMS positions in the tail.
  for (Idx i = 1, k = 0; i < n; ++i) {
    if (is_lms(i)) reduced[k++] = i;
  }
  for (Idx i = 0; i < n_lms; ++i) sa[i] = reduced[sa[i]];

  // Stage 2: place LMS suffixes in their now-known order and induce.
  std::fill(sa + n_lms, sa + n, kEmpty);
  bucket_bounds(/*ends=*/true);
  for (Idx i = n_lms; i-- > 0;) {
    Idx j = sa[i];
    sa[i] = kEmpty;
    sa[--bkt[s[j]]] = j;
  }
  induce();
}

}  // namespace

template <typename Idx>
std::vector<Idx> BuildSuffixArray(const std::vector<uint32_t>& text,
                                  uint32_t sigma) {
  DYNDEX_CHECK(!text.empty() && text.back() == 0);
  DYNDEX_CHECK(text.size() <= std::numeric_limits<Idx>::max());
  Idx n = static_cast<Idx>(text.size());
  for (Idx i = 0; i < n; ++i) {
    DYNDEX_DCHECK(text[i] < sigma);
    DYNDEX_DCHECK(text[i] != 0 || i == n - 1);
  }
  std::vector<Idx> sa(n);  // n == 1: {0}, the sentinel alone
  if (n > 1) SaIs<Idx, uint32_t>(text.data(), sa.data(), n, sigma);
  return sa;
}

template std::vector<uint32_t> BuildSuffixArray<uint32_t>(
    const std::vector<uint32_t>&, uint32_t);
template std::vector<uint64_t> BuildSuffixArray<uint64_t>(
    const std::vector<uint32_t>&, uint32_t);

}  // namespace dyndex

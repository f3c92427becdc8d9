#include "suffix/sais.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/text_gen.h"
#include "tests/testing_util.h"
#include "util/rng.h"

namespace dyndex {
namespace {

std::vector<Symbol> WithSentinel(std::vector<Symbol> t) {
  t.push_back(kSentinel);
  return t;
}

uint32_t SigmaOf(const std::vector<Symbol>& text) {
  uint32_t sigma = 0;
  for (Symbol s : text) sigma = s + 1 > sigma ? s + 1 : sigma;
  return sigma;
}

// Builds the SA at both index widths; the two must be identical. Returns the
// 64-bit one.
std::vector<uint64_t> WidthTwinSuffixArray(const std::vector<Symbol>& text) {
  uint32_t sigma = SigmaOf(text);
  std::vector<uint32_t> narrow = BuildSuffixArray<uint32_t>(text, sigma);
  std::vector<uint64_t> wide = BuildSuffixArray<uint64_t>(text, sigma);
  EXPECT_TRUE(std::equal(narrow.begin(), narrow.end(), wide.begin(),
                         wide.end()))
      << "32-bit and 64-bit SAs differ, n=" << text.size();
  return wide;
}

void ExpectValidSuffixArray(const std::vector<Symbol>& text) {
  ASSERT_EQ(WidthTwinSuffixArray(text), NaiveSuffixArray(text));
}

// Linear-time SA check for inputs too repetitive for the naive sort: `sa` is
// a permutation, and adjacent rows are ordered by their first symbol, then by
// the ranks of the suffixes one position later.
void ExpectSortedSuffixArray(const std::vector<Symbol>& text,
                             const std::vector<uint64_t>& sa) {
  uint64_t n = text.size();
  ASSERT_EQ(sa.size(), n);
  std::vector<uint64_t> rank(n, n);
  for (uint64_t row = 0; row < n; ++row) {
    ASSERT_LT(sa[row], n);
    ASSERT_EQ(rank[sa[row]], n) << "position listed twice: " << sa[row];
    rank[sa[row]] = row;
  }
  ASSERT_EQ(sa[0], n - 1);
  for (uint64_t row = 1; row < n; ++row) {
    uint64_t a = sa[row - 1], b = sa[row];
    ASSERT_TRUE(text[a] < text[b] ||
                (text[a] == text[b] && rank[a + 1] < rank[b + 1]))
        << "rows " << row - 1 << ", " << row;
  }
}

TEST(SaisTest, TinyInputs) {
  ExpectValidSuffixArray({0});
  ExpectValidSuffixArray({5, 0});
  ExpectValidSuffixArray({2, 2, 0});
  ExpectValidSuffixArray({3, 2, 0});
  ExpectValidSuffixArray({2, 3, 0});
}

TEST(SaisTest, ClassicBanana) {
  // "banana" mapped to integers: b=4,a=3,n=5.
  std::vector<Symbol> t{4, 3, 5, 3, 5, 3, 0};
  ExpectValidSuffixArray(t);
}

TEST(SaisTest, AllEqualSymbols) {
  ExpectValidSuffixArray(WithSentinel(std::vector<Symbol>(500, 7)));
}

TEST(SaisTest, StrictlyIncreasingAndDecreasing) {
  std::vector<Symbol> inc, dec;
  for (uint32_t i = 0; i < 200; ++i) inc.push_back(2 + i);
  for (uint32_t i = 0; i < 200; ++i) dec.push_back(2 + 199 - i);
  ExpectValidSuffixArray(WithSentinel(inc));
  ExpectValidSuffixArray(WithSentinel(dec));
}

TEST(SaisTest, PeriodicText) {
  std::vector<Symbol> t;
  for (int i = 0; i < 300; ++i) t.push_back(2 + (i % 3));
  ExpectValidSuffixArray(WithSentinel(t));
}

class SaisRandomTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(SaisRandomTest, MatchesNaiveSort) {
  auto [n, sigma] = GetParam();
  Rng rng(n * 1000 + sigma);
  ExpectValidSuffixArray(WithSentinel(UniformText(rng, n, sigma)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SaisRandomTest,
    ::testing::Combine(::testing::Values(1, 2, 10, 100, 1000, 5000),
                       ::testing::Values(1u, 2u, 4u, 26u, 1000u)));

TEST(SaisTest, MarkovAndZipfTexts) {
  Rng rng(11);
  ExpectValidSuffixArray(WithSentinel(MarkovText(rng, 2000, 16)));
  ExpectValidSuffixArray(WithSentinel(ZipfText(rng, 2000, 64)));
}

// --- fuzz-style adversarial inputs ----------------------------------------

TEST(SaisAdversarialTest, AlphabetOfSizeOne) {
  // Text uses a single distinct symbol besides the sentinel, at several
  // lengths including the trivial ones.
  for (uint64_t n : {1ull, 2ull, 3ull, 63ull, 64ull, 65ull, 1000ull}) {
    ExpectValidSuffixArray(WithSentinel(std::vector<Symbol>(n, 2)));
  }
}

TEST(SaisAdversarialTest, AllEqualLargeRuns) {
  // All-equal texts are the worst case for induced sorting: every suffix
  // comparison runs to the end.
  ExpectValidSuffixArray(WithSentinel(std::vector<Symbol>(5000, 9)));
}

TEST(SaisAdversarialTest, BoundarySizes) {
  // Sizes straddling internal block/bucket boundaries (powers of two +- 1)
  // — the shapes documents take at the paper's max_j/2 "large document"
  // threshold.
  Rng rng(77);
  for (uint64_t n : {31ull, 32ull, 33ull, 127ull, 128ull, 129ull, 255ull,
                     256ull, 257ull, 1023ull, 1024ull, 1025ull}) {
    ExpectValidSuffixArray(WithSentinel(UniformText(rng, n, 4)));
  }
}

TEST(SaisAdversarialTest, ConcatOfLengthOneDocuments) {
  // A concatenation of length-1 documents is alternating symbol/separator:
  // maximal separator density, each text symbol is its own L/S context.
  std::vector<Symbol> t;
  Rng rng(78);
  for (int d = 0; d < 200; ++d) {
    t.push_back(2 + static_cast<Symbol>(rng.Below(4)));
    t.push_back(kSeparator);
  }
  ExpectValidSuffixArray(WithSentinel(t));
}

TEST(SaisAdversarialTest, NestedRepetitionsAndRunBoundaries) {
  // abab..., aabb..., fibonacci-like repetition: stress L/S type switches.
  std::vector<Symbol> ab, aabb, fib_a{2}, fib_b{2, 3};
  for (int i = 0; i < 500; ++i) ab.push_back(2 + (i & 1));
  for (int i = 0; i < 500; ++i) aabb.push_back(2 + ((i >> 1) & 1));
  for (int i = 0; i < 10; ++i) {
    auto next = fib_b;
    next.insert(next.end(), fib_a.begin(), fib_a.end());
    fib_a = std::move(fib_b);
    fib_b = std::move(next);
  }
  ExpectValidSuffixArray(WithSentinel(ab));
  ExpectValidSuffixArray(WithSentinel(aabb));
  ExpectValidSuffixArray(WithSentinel(fib_b));
}

TEST(SaisAdversarialTest, SeededFuzzSweep) {
  // Many small random shapes; the failing seed is in the assertion message.
  for (uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed);
    uint64_t n = 1 + rng.Below(64);
    uint32_t sigma = 1 + static_cast<uint32_t>(rng.Below(6));
    std::vector<Symbol> t = UniformText(rng, n, sigma);
    // Randomly sprinkle separators to mimic document concatenations.
    for (auto& s : t) {
      if (rng.Below(8) == 0) s = kSeparator;
    }
    SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
    ExpectValidSuffixArray(WithSentinel(t));
  }
}

TEST(SaisTest, SentinelRowIsFirst) {
  Rng rng(12);
  auto t = WithSentinel(UniformText(rng, 1000, 8));
  auto sa = BuildSuffixArray<uint32_t>(t, 10);
  EXPECT_EQ(sa[0], t.size() - 1);
  // Permutation property.
  std::vector<bool> seen(t.size(), false);
  for (uint64_t v : sa) {
    ASSERT_LT(v, t.size());
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

// --- deep recursion --------------------------------------------------------
// The reduced problem is named, gathered and solved inside the SA buffer, so
// the inputs that matter are those whose reduced strings keep repeating and
// recurse many levels. Each is checked against its 64-bit twin and the
// linear-time order check; the naive sort is too slow on them.

TEST(SaisDeepRecursionTest, FibonacciWord) {
  // 196418 symbols; SA-IS recurses 10 levels below the top one.
  std::vector<Symbol> a{2}, b{2, 3};
  while (b.size() < (1u << 17)) {
    std::vector<Symbol> next = b;
    next.insert(next.end(), a.begin(), a.end());
    a = std::move(b);
    b = std::move(next);
  }
  auto t = WithSentinel(std::move(b));
  ExpectSortedSuffixArray(t, WidthTwinSuffixArray(t));
}

TEST(SaisDeepRecursionTest, PeriodicTextWithSeparators) {
  // 200 copies of one random 1000-symbol document: 6 levels below the top.
  Rng rng(13);
  std::vector<Symbol> unit = UniformText(rng, 1000, 4);
  std::vector<Symbol> t;
  for (int rep = 0; rep < 200; ++rep) {
    t.insert(t.end(), unit.begin(), unit.end());
    t.push_back(kSeparator);
  }
  t = WithSentinel(std::move(t));
  ExpectSortedSuffixArray(t, WidthTwinSuffixArray(t));
}

}  // namespace
}  // namespace dyndex

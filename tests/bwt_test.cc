#include "suffix/bwt.h"

#include <gtest/gtest.h>

#include <vector>

#include "gen/text_gen.h"
#include "suffix/sais.h"
#include "util/rng.h"

namespace dyndex {
namespace {

// The BWT through both SA index widths; the two must be identical.
std::vector<Symbol> TwinBwt(const std::vector<Symbol>& t, uint32_t sigma) {
  std::vector<Symbol> narrow =
      BwtFromSuffixArray(t, BuildSuffixArray<uint32_t>(t, sigma));
  std::vector<Symbol> wide =
      BwtFromSuffixArray(t, BuildSuffixArray<uint64_t>(t, sigma));
  EXPECT_EQ(narrow, wide) << "SA widths disagree, n=" << t.size();
  return narrow;
}

class BwtRoundTripTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(BwtRoundTripTest, InverseRecoversText) {
  auto [n, sigma] = GetParam();
  Rng rng(n + sigma);
  std::vector<Symbol> t = UniformText(rng, n, sigma);
  t.push_back(kSentinel);
  uint32_t full_sigma = 0;
  for (Symbol s : t) full_sigma = s + 1 > full_sigma ? s + 1 : full_sigma;
  auto bwt = TwinBwt(t, full_sigma);
  ASSERT_EQ(bwt.size(), t.size());
  // Exactly one sentinel in the BWT.
  uint64_t sentinels = 0;
  for (Symbol c : bwt) sentinels += c == kSentinel;
  EXPECT_EQ(sentinels, 1u);
  EXPECT_EQ(InverseBwt(bwt, full_sigma), t);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BwtRoundTripTest,
    ::testing::Combine(::testing::Values(1, 2, 17, 256, 4000),
                       ::testing::Values(2u, 4u, 26u, 300u)));

TEST(BwtTest, KnownTransform) {
  // "banana$" with a=2,b=3,n=4 and $=0 -> BWT should be "annb$aa":
  // suffixes sorted: $, a$, ana$, anana$, banana$, na$, nana$
  // preceding chars:  a   n    n      b       $     a    a
  std::vector<Symbol> t{3, 2, 4, 2, 4, 2, 0};
  auto bwt = TwinBwt(t, 5);
  EXPECT_EQ(bwt, (std::vector<Symbol>{2, 4, 4, 3, 0, 2, 2}));
}

// --- fuzz-style adversarial inputs ----------------------------------------

namespace {
void ExpectRoundTrip(std::vector<Symbol> t) {
  t.push_back(kSentinel);
  uint32_t sigma = 0;
  for (Symbol s : t) sigma = s + 1 > sigma ? s + 1 : sigma;
  auto bwt = TwinBwt(t, sigma);
  ASSERT_EQ(InverseBwt(bwt, sigma), t);
}
}  // namespace

TEST(BwtAdversarialTest, AlphabetOfSizeOne) {
  for (uint64_t n : {1ull, 2ull, 64ull, 1000ull}) {
    ExpectRoundTrip(std::vector<Symbol>(n, 2));
  }
}

TEST(BwtAdversarialTest, AllEqualSymbolRunsGroupToOneRun) {
  // BWT of c^n $ is c...c$ rotated: exactly two runs after the sentinel.
  std::vector<Symbol> t(300, 5);
  t.push_back(kSentinel);
  auto bwt = TwinBwt(t, 6);
  uint64_t runs = 1;
  for (uint64_t i = 1; i < bwt.size(); ++i) runs += bwt[i] != bwt[i - 1];
  EXPECT_LE(runs, 3u);
  EXPECT_EQ(InverseBwt(bwt, 6), t);
}

TEST(BwtAdversarialTest, ConcatOfLengthOneDocuments) {
  std::vector<Symbol> t;
  Rng rng(79);
  for (int d = 0; d < 150; ++d) {
    t.push_back(2 + static_cast<Symbol>(rng.Below(3)));
    t.push_back(kSeparator);
  }
  ExpectRoundTrip(std::move(t));
}

TEST(BwtAdversarialTest, BoundarySizes) {
  Rng rng(80);
  for (uint64_t n : {1ull, 2ull, 3ull, 31ull, 32ull, 33ull, 255ull, 256ull,
                     257ull, 1023ull, 1024ull, 1025ull}) {
    ExpectRoundTrip(UniformText(rng, n, 4));
  }
}

TEST(BwtAdversarialTest, SeededFuzzSweep) {
  for (uint64_t seed = 0; seed < 120; ++seed) {
    Rng rng(seed * 31 + 7);
    uint64_t n = 1 + rng.Below(80);
    uint32_t sigma = 1 + static_cast<uint32_t>(rng.Below(8));
    std::vector<Symbol> t = UniformText(rng, n, sigma);
    for (auto& s : t) {
      if (rng.Below(10) == 0) s = kSeparator;
    }
    SCOPED_TRACE("fuzz seed=" + std::to_string(seed));
    ExpectRoundTrip(std::move(t));
  }
}

TEST(BwtAdversarialTest, DeepRecursionRoundTrips) {
  // A Fibonacci word (SA-IS recurses 10 levels below the top one) and 200
  // separator-terminated copies of one document (6 levels).
  std::vector<Symbol> a{2}, fib{2, 3};
  while (fib.size() < (1u << 17)) {
    std::vector<Symbol> next = fib;
    next.insert(next.end(), a.begin(), a.end());
    a = std::move(fib);
    fib = std::move(next);
  }
  ExpectRoundTrip(std::move(fib));
  Rng rng(81);
  std::vector<Symbol> unit = UniformText(rng, 1000, 4);
  std::vector<Symbol> periodic;
  for (int rep = 0; rep < 200; ++rep) {
    periodic.insert(periodic.end(), unit.begin(), unit.end());
    periodic.push_back(kSeparator);
  }
  ExpectRoundTrip(std::move(periodic));
}

TEST(BwtTest, RepetitiveTextGroupsRuns) {
  // BWT of a highly repetitive text should contain long runs; sanity-check
  // that the run count is far below n.
  Rng rng(5);
  std::vector<Symbol> t;
  auto unit = UniformText(rng, 25, 4);
  for (int rep = 0; rep < 40; ++rep) {
    t.insert(t.end(), unit.begin(), unit.end());
  }
  t.push_back(kSentinel);
  auto bwt = TwinBwt(t, 8);
  uint64_t runs = 1;
  for (uint64_t i = 1; i < bwt.size(); ++i) runs += bwt[i] != bwt[i - 1];
  EXPECT_LT(runs * 4, bwt.size());
}

}  // namespace
}  // namespace dyndex

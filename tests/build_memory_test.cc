// Memory gate for the static build. A counting global operator new/delete
// tracks the peak of live heap bytes, and each build step must stay under a
// per-symbol ceiling — a deterministic check that needs no quiet machine.
// The same counter gates the one-shard read path: a K = 1 ShardedIndex
// query is a direct call on its shard and must not touch the heap.
//
// Measured (x86-64, glibc, Release; the figures count malloc_usable_size, so
// they include allocator rounding):
//   BuildSuffixArray<uint32_t>, 2^20-symbol Markov text, output included:
//     4.6 B/symbol (the earlier int64_t SA-IS with a widening copy: 45.5).
//   FmIndex::Build above its ConcatText, same text as 1024 documents:
//     9.4 B/symbol (the earlier build, which copied the text to append the
//     sentinel and kept SA, BWT and wavelet-tree buffers at once: 55.6).
#include <malloc.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "gen/text_gen.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "suffix/sais.h"
#include "text/concat_text.h"
#include "text/fm_index.h"
#include "util/rng.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};
std::atomic<int64_t> g_allocations{0};

void* Counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1);
  int64_t size = static_cast<int64_t>(malloc_usable_size(p));
  int64_t live = g_live_bytes.fetch_add(size) + size;
  int64_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void Uncounted(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return Counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return Counted(std::malloc(n ? n : 1)); }
void operator delete(void* p) noexcept { Uncounted(p); }
void operator delete[](void* p) noexcept { Uncounted(p); }
void operator delete(void* p, std::size_t) noexcept { Uncounted(p); }
void operator delete[](void* p, std::size_t) noexcept { Uncounted(p); }

namespace dyndex {
namespace {

constexpr uint64_t kSymbols = 1ull << 20;

/// Peak live heap bytes from construction on, above the live bytes then.
class PeakHeap {
 public:
  PeakHeap() : base_(g_live_bytes.load()) { g_peak_bytes.store(base_); }
  double BytesPerSymbol() const {
    return static_cast<double>(g_peak_bytes.load() - base_) / kSymbols;
  }

 private:
  int64_t base_;
};

TEST(BuildMemoryTest, SuffixArrayPeakPerSymbol) {
  Rng rng(21);
  std::vector<Symbol> text = MarkovText(rng, kSymbols - 1, 64);
  text.push_back(kSentinel);
  PeakHeap peak;
  std::vector<uint32_t> sa = BuildSuffixArray<uint32_t>(text, kMinSymbol + 64);
  double per_symbol = peak.BytesPerSymbol();
  RecordProperty("sais_peak_bytes_per_symbol", std::to_string(per_symbol));
  EXPECT_EQ(sa[0], kSymbols - 1);
  EXPECT_LE(per_symbol, 8.0);
}

TEST(BuildMemoryTest, FmIndexBuildPeakPerSymbol) {
  Rng rng(22);
  std::vector<Document> docs;
  for (uint32_t d = 0; d < 1024; ++d) {
    docs.push_back({d, MarkovText(rng, kSymbols / 1024 - 1, 64)});
  }
  ConcatText text(docs);
  ASSERT_EQ(text.size(), kSymbols + 1);
  PeakHeap peak;
  FmIndex idx = FmIndex::Build(text, {});
  double per_symbol = peak.BytesPerSymbol();
  RecordProperty("fm_build_peak_bytes_per_symbol", std::to_string(per_symbol));
  EXPECT_EQ(idx.NumRows(), text.size());
  EXPECT_LE(per_symbol, 12.0);
}

TEST(BuildMemoryTest, OneShardCountAllocatesNothing) {
  Rng rng(23);
  DynamicIndexOptions opt;
  opt.mode = RebuildMode::kSynchronous;
  ShardedIndex index(1, Backend::kT2, opt);
  std::vector<std::vector<Symbol>> docs;
  for (int d = 0; d < 64; ++d) docs.push_back(MarkovText(rng, 200, 16));
  index.InsertBatch(docs);
  const std::vector<Symbol> pattern(docs[0].begin() + 10, docs[0].begin() + 14);
  // Warm up: the first read claims this thread's reader slot.
  ASSERT_GT(index.Count(pattern), 0u);
  const int64_t before = g_allocations.load();
  const uint64_t count = index.Count(pattern);
  const uint64_t num_docs = index.num_docs();
  const int64_t allocations = g_allocations.load() - before;
  EXPECT_GT(count, 0u);
  EXPECT_EQ(num_docs, docs.size());
  EXPECT_EQ(allocations, 0) << "a one-shard read must be a direct call";
}

}  // namespace
}  // namespace dyndex

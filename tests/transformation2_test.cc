// Model tests of Transformation 2 (worst-case updates): synchronous mode is
// deterministic; threaded mode exercises real background builds with racing
// deletions replayed at swap time.
#include "core/transformation2.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gen/text_gen.h"
#include "text/fm_index.h"
#include "text/packed_sa_index.h"
#include "util/rng.h"

namespace dyndex {
namespace {

std::vector<Occurrence> NaiveFind(
    const std::map<DocId, std::vector<Symbol>>& model,
    const std::vector<Symbol>& p) {
  std::vector<Occurrence> out;
  for (const auto& [id, doc] : model) {
    if (doc.size() < p.size()) continue;
    for (uint64_t i = 0; i + p.size() <= doc.size(); ++i) {
      if (std::equal(p.begin(), p.end(),
                     doc.begin() + static_cast<int64_t>(i))) {
        out.push_back({id, i});
      }
    }
  }
  return out;
}

T2Options SmallT2(RebuildMode mode, bool counting = false) {
  T2Options opt;
  opt.min_c0 = 64;
  opt.tau = 4;
  opt.counting = counting;
  opt.mode = mode;
  return opt;
}

// Churns `coll`, which must already hold exactly the documents of `model`.
template <typename Coll>
void RunChurn(Coll& coll, uint64_t seed, int steps, uint32_t sigma,
              uint64_t max_doc_len, bool check_queries_every_step,
              std::map<DocId, std::vector<Symbol>> model = {}) {
  Rng rng(seed);
  for (int step = 0; step < steps; ++step) {
    uint64_t op = rng.Below(10);
    if (op < 5 || model.empty()) {
      auto doc = UniformText(rng, rng.Range(1, max_doc_len), sigma);
      DocId id = coll.Insert(doc);
      model.emplace(id, std::move(doc));
    } else if (op < 7) {
      auto it = model.begin();
      std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
      ASSERT_TRUE(coll.Erase(it->first));
      model.erase(it);
    } else if (op < 9 || check_queries_every_step) {
      std::vector<std::vector<Symbol>> live;
      for (const auto& [id, d] : model) live.push_back(d);
      auto p = SamplePattern(rng, live, rng.Range(1, 6), sigma);
      auto got = coll.Find(p);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, NaiveFind(model, p)) << "step " << step;
      ASSERT_EQ(coll.Count(p), NaiveFind(model, p).size()) << "step " << step;
    } else if (!model.empty()) {
      auto it = model.begin();
      std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
      const auto& doc = it->second;
      uint64_t from = rng.Below(doc.size());
      uint64_t len = rng.Below(doc.size() - from + 1);
      auto begin = doc.begin() + static_cast<int64_t>(from);
      std::vector<Symbol> expect(begin, begin + static_cast<int64_t>(len));
      ASSERT_EQ(coll.Extract(it->first, from, len), expect);
    }
    if (step % 100 == 99) coll.CheckInvariants();
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  ASSERT_EQ(coll.num_docs(), model.size());
  // Exhaustive final check.
  std::vector<std::vector<Symbol>> live;
  for (const auto& [id, d] : model) live.push_back(d);
  Rng qrng(seed + 1);
  for (int q = 0; q < 30 && !model.empty(); ++q) {
    auto p = SamplePattern(qrng, live, qrng.Range(1, 5), sigma);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

TEST(T2Sync, ChurnModelFm) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  RunChurn(coll, 2001, 700, 4, 100, false);
}

TEST(T2Sync, ChurnModelFmCounting) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous, true));
  RunChurn(coll, 2002, 500, 6, 80, false);
}

TEST(T2Sync, ChurnModelPacked) {
  DynamicCollectionT2<PackedSaIndex> coll(SmallT2(RebuildMode::kSynchronous));
  RunChurn(coll, 2003, 600, 4, 100, false);
}

TEST(T2Threaded, ChurnModelFm) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  RunChurn(coll, 2004, 700, 4, 100, false);
}

TEST(T2Threaded, ChurnModelQueriesEveryStep) {
  // Query correctness must hold *while* background builds are in flight.
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  RunChurn(coll, 2005, 300, 4, 60, true);
}

TEST(T2Sync, OversizedDocBecomesTopCollection) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  Rng rng(2006);
  // Prime the collection.
  std::map<DocId, std::vector<Symbol>> model;
  for (int i = 0; i < 50; ++i) {
    auto d = UniformText(rng, 30, 4);
    model.emplace(coll.Insert(d), d);
  }
  auto big = UniformText(rng, 4000, 4);
  DocId id = coll.Insert(big);
  model.emplace(id, big);
  EXPECT_GE(coll.num_tops(), 1u);
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 4, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
  // Deleting the oversized doc must eventually drop its top collection.
  coll.Erase(id);
  model.erase(id);
  auto p = SamplePattern(rng, {big}, 6, 4);
  auto got = coll.Find(p);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, NaiveFind(model, p));
}

TEST(T2Sync, HeavyDeletionTriggersPurges) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  Rng rng(2007);
  std::vector<DocId> ids;
  std::map<DocId, std::vector<Symbol>> model;
  for (int i = 0; i < 400; ++i) {
    auto d = UniformText(rng, 40, 4);
    DocId id = coll.Insert(d);
    ids.push_back(id);
    model.emplace(id, d);
  }
  // Delete 90%.
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 == 0) continue;
    ASSERT_TRUE(coll.Erase(ids[i]));
    model.erase(ids[i]);
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 3, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

TEST(T2Threaded, DeletionsDuringBackgroundBuildAreReplayed) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kThreaded));
  Rng rng(2008);
  std::map<DocId, std::vector<Symbol>> model;
  // Fill beyond C0 so a background build starts, then delete immediately.
  std::vector<DocId> ids;
  for (int i = 0; i < 120; ++i) {
    auto d = UniformText(rng, 20, 4);
    DocId id = coll.Insert(d);
    ids.push_back(id);
    model.emplace(id, d);
  }
  // Erase a batch without waiting for pending builds.
  for (int i = 0; i < 60; ++i) {
    coll.Erase(ids[i]);
    model.erase(ids[i]);
  }
  coll.ForceAllPending();
  coll.CheckInvariants();
  ASSERT_EQ(coll.num_docs(), model.size());
  std::vector<std::vector<Symbol>> live;
  for (const auto& [i, d] : model) live.push_back(d);
  for (int q = 0; q < 20; ++q) {
    auto p = SamplePattern(rng, live, 3, 4);
    auto got = coll.Find(p);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, NaiveFind(model, p));
  }
}

// --- cold bulk load vs one Insert per document -------------------------------

using Model = std::map<DocId, std::vector<Symbol>>;
using FmT2 = DynamicCollectionT2<FmIndex>;

constexpr uint32_t kTwinSigma = 4;

std::vector<std::vector<Symbol>> FixedLengthBatch(Rng& rng, int docs,
                                                  uint64_t len) {
  std::vector<std::vector<Symbol>> batch;
  for (int i = 0; i < docs; ++i) {
    batch.push_back(UniformText(rng, len, kTwinSigma));
  }
  return batch;
}

/// Both twins serve exactly `model`: per-document lengths and slices, and
/// Count/Find on patterns sampled from the documents and drawn uniformly.
void ExpectTwinsServe(const FmT2& bulk, const FmT2& loop, const Model& model,
                      Rng& rng) {
  ASSERT_EQ(bulk.num_docs(), model.size());
  ASSERT_EQ(loop.num_docs(), model.size());
  ASSERT_EQ(bulk.live_symbols(), loop.live_symbols());
  std::vector<std::vector<Symbol>> live;
  for (const auto& [id, doc] : model) {
    live.push_back(doc);
    ASSERT_EQ(bulk.DocLenOf(id), doc.size()) << "id " << id;
    ASSERT_EQ(loop.DocLenOf(id), doc.size()) << "id " << id;
    uint64_t from = rng.Below(doc.size());
    uint64_t len = rng.Range(1, doc.size() - from);
    auto begin = doc.begin() + static_cast<int64_t>(from);
    std::vector<Symbol> expect(begin, begin + static_cast<int64_t>(len));
    ASSERT_EQ(bulk.Extract(id, from, len), expect) << "id " << id;
    ASSERT_EQ(loop.Extract(id, from, len), expect) << "id " << id;
  }
  for (int q = 0; q < 40; ++q) {
    uint64_t plen = rng.Range(1, 6);
    auto p = q % 2 == 0 && !live.empty()
                 ? SamplePattern(rng, live, plen, kTwinSigma)
                 : UniformText(rng, plen, kTwinSigma);
    auto expect = NaiveFind(model, p);
    auto got_bulk = bulk.Find(p);
    auto got_loop = loop.Find(p);
    std::sort(got_bulk.begin(), got_bulk.end());
    std::sort(got_loop.begin(), got_loop.end());
    ASSERT_EQ(got_bulk, expect) << "query " << q;
    ASSERT_EQ(got_loop, expect) << "query " << q;
    ASSERT_EQ(bulk.Count(p), expect.size()) << "query " << q;
    ASSERT_EQ(loop.Count(p), expect.size()) << "query " << q;
  }
}

/// Loads `batch` into one collection with InsertBulk and into a twin with one
/// Insert per document, checks both serve the same ids and answers, then runs
/// the same seeded churn on both.
void RunBulkTwin(RebuildMode mode,
                 const std::vector<std::vector<Symbol>>& batch, uint64_t seed) {
  SCOPED_TRACE("docs=" + std::to_string(batch.size()) + " seed=" +
               std::to_string(seed));
  const T2Options opt = SmallT2(mode);
  FmT2 bulk(opt);
  FmT2 loop(opt);
  std::vector<DocId> bulk_ids = bulk.InsertBulk(batch);
  std::vector<DocId> loop_ids;
  uint64_t total = 0;
  for (const auto& doc : batch) {
    loop_ids.push_back(loop.Insert(doc));
    total += doc.size();
  }
  ASSERT_EQ(bulk_ids, loop_ids);
  loop.ForceAllPending();
  bulk.CheckInvariants();
  loop.CheckInvariants();
  // Batches here stay far below the size at which C0's capacity grows past
  // min_c0, so min_c0 decides between RebaseInto's two branches.
  if (total <= opt.min_c0) {
    EXPECT_EQ(bulk.num_tops(), 0u);  // the batch lives in C0
  } else {
    // One top collection and nothing left in the C0 suffix tree.
    EXPECT_EQ(bulk.num_tops(), 1u);
    EXPECT_EQ(bulk.Space().uncompressed, FmT2(opt).Space().uncompressed);
  }
  Model model;
  for (size_t i = 0; i < batch.size(); ++i) {
    model.emplace(bulk_ids[i], batch[i]);
  }
  Rng rng(seed);
  ExpectTwinsServe(bulk, loop, model, rng);
  RunChurn(bulk, seed, 300, kTwinSigma, 60, false, model);
  RunChurn(loop, seed, 300, kTwinSigma, 60, false, model);
}

void RunBulkTwinSizes(RebuildMode mode) {
  Rng rng(2100);
  // Fits C0: 48 <= min_c0 = 64 symbols.
  RunBulkTwin(mode, FixedLengthBatch(rng, 4, 12), 2101);
  // 2^5 * min_c0 symbols of fixed-length documents, the benchmark's shape.
  RunBulkTwin(mode, FixedLengthBatch(rng, 64, 32), 2102);
  // Mixed lengths with an odd total.
  std::vector<std::vector<Symbol>> odd;
  uint64_t total = 0;
  for (int i = 0; i < 53; ++i) {
    odd.push_back(UniformText(rng, rng.Range(1, 60), kTwinSigma));
    total += odd.back().size();
  }
  if (total % 2 == 0) odd.push_back(UniformText(rng, 1, kTwinSigma));
  RunBulkTwin(mode, odd, 2103);
  // The empty batch mints nothing; the churn then starts from empty.
  RunBulkTwin(mode, {}, 2104);
}

TEST(T2Bulk, TwinOfInsertLoopSync) {
  RunBulkTwinSizes(RebuildMode::kSynchronous);
}

TEST(T2Bulk, TwinOfInsertLoopThreaded) {
  RunBulkTwinSizes(RebuildMode::kThreaded);
}

TEST(T2Bulk, EmptiedCollectionLoadsLikeAFreshOne) {
  // Every document erased, but too few symbols ever lived for the shrink
  // rebase to run, so dead documents may linger in C0 and the tops: the
  // bulk load must serve exactly the batch, with the ids the loop mints.
  Rng rng(2106);
  FmT2 bulk(SmallT2(RebuildMode::kSynchronous));
  FmT2 loop(SmallT2(RebuildMode::kSynchronous));
  for (FmT2* coll : {&bulk, &loop}) {
    std::vector<DocId> ids;
    Rng fill(2107);
    for (int i = 0; i < 5; ++i) {
      ids.push_back(coll->Insert(UniformText(fill, 20, kTwinSigma)));
    }
    for (DocId id : ids) ASSERT_TRUE(coll->Erase(id));
    ASSERT_EQ(coll->live_symbols(), 0u);
  }
  auto batch = FixedLengthBatch(rng, 40, 25);
  std::vector<DocId> bulk_ids = bulk.InsertBulk(batch);
  std::vector<DocId> loop_ids;
  for (const auto& doc : batch) loop_ids.push_back(loop.Insert(doc));
  ASSERT_EQ(bulk_ids, loop_ids);
  bulk.CheckInvariants();
  Model model;
  for (size_t i = 0; i < batch.size(); ++i) {
    model.emplace(bulk_ids[i], batch[i]);
  }
  ExpectTwinsServe(bulk, loop, model, rng);
  RunChurn(bulk, 2108, 300, kTwinSigma, 60, false, model);
}

TEST(T2Sync, EraseUnknownAndDoubleErase) {
  DynamicCollectionT2<FmIndex> coll(SmallT2(RebuildMode::kSynchronous));
  EXPECT_FALSE(coll.Erase(999));
  DocId id = coll.Insert({2, 3, 4});
  EXPECT_TRUE(coll.Erase(id));
  EXPECT_FALSE(coll.Erase(id));
  EXPECT_EQ(coll.num_docs(), 0u);
}

}  // namespace
}  // namespace dyndex

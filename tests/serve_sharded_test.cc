// Single-threaded differential model checking of the sharded serving layer:
// ShardedIndex against the string-scan ReferenceModel and ShardedRelation
// against a std::set<pair> model, driven through seeded mixed batches at
// several shard counts. Verifies the id-minting contract (round-robin
// placement makes global ids dense and sequential for a single writer), the
// cross-shard merge semantics of fanned-out queries, and that the facade
// hardening semantics survive the sharded layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "gen/text_gen.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "tests/model_checker.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint32_t kSigma = 4;

DynamicIndexOptions SmallDocOptions() {
  DynamicIndexOptions opt;
  opt.min_c0 = 64;  // frequent level overflows inside every shard
  opt.tau = 4;
  return opt;
}

void RunShardedDocChurn(uint32_t shards, Backend backend, uint64_t seed,
                        int rounds) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " backend=" + BackendName(backend) +
               " seed=" + std::to_string(seed));
  ShardedIndex index(shards, backend, SmallDocOptions());
  ReferenceModel model;
  Rng rng(seed);
  std::vector<DocId> live;
  // Round-robin placement from a zero cursor mints global ids 0,1,2,... in
  // insertion order for a single writer; the model predicts them.
  DocId next_id = 0;
  for (int round = 0; round < rounds; ++round) {
    if (rng.Below(10) < 6 || live.size() < 4) {
      uint64_t n = rng.Range(1, 6);
      std::vector<std::vector<Symbol>> docs;
      std::vector<DocId> want_ids;
      for (uint64_t i = 0; i < n; ++i) {
        docs.push_back(UniformText(rng, rng.Range(1, 60), kSigma));
        want_ids.push_back(next_id++);
      }
      std::vector<DocId> got_ids = index.InsertBatch(docs);  // copies docs
      ASSERT_EQ(got_ids, want_ids) << "round=" << round;
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(index.shard_of(want_ids[i]), want_ids[i] % shards);
        model.Insert(want_ids[i], docs[i]);
        live.push_back(want_ids[i]);
      }
    } else {
      uint64_t m = rng.Range(1, std::min<uint64_t>(4, live.size()));
      std::vector<DocId> victims;
      for (uint64_t i = 0; i < m; ++i) {
        uint64_t pick = rng.Below(live.size());
        victims.push_back(live[pick]);
        live.erase(live.begin() + static_cast<int64_t>(pick));
      }
      ASSERT_EQ(index.EraseBatch(victims), victims.size())
          << "round=" << round;
      for (DocId id : victims) model.Erase(id);
      // Double-erase must be total and count zero.
      ASSERT_EQ(index.EraseBatch(victims), 0u);
    }
    // Fanned-out queries vs the model.
    auto live_docs = model.LiveDocs();
    auto pattern =
        SamplePattern(rng, live_docs, rng.Range(1, 5), kSigma);
    auto expect = model.Find(pattern);
    ShardEpochs epochs;
    auto got = index.Locate(pattern, &epochs);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << "round=" << round;
    ASSERT_EQ(epochs.size(), shards);
    ASSERT_EQ(index.Count(pattern), expect.size()) << "round=" << round;
    ASSERT_EQ(index.num_docs(), model.num_docs());
    // Id-keyed queries route to one shard.
    if (!live.empty()) {
      DocId id = live[rng.Below(live.size())];
      uint64_t doc_len = model.DocLenOf(id);
      ASSERT_EQ(index.DocLenOf(id), doc_len);
      uint64_t from = rng.Below(doc_len);
      uint64_t len = rng.Below(doc_len - from + 1);
      std::vector<Symbol> out;
      uint64_t epoch = 0;
      ASSERT_TRUE(index.Extract(id, from, len, &out, &epoch));
      if (len > 0) {
        ASSERT_EQ(out, model.Extract(id, from, len)) << "round=" << round;
      }
      ASSERT_LE(epoch, index.epochs()[index.shard_of(id)]);
    }
    // Degenerate inputs stay total through the sharded layer.
    ASSERT_EQ(index.Count({}), 0u);
    ASSERT_TRUE(index.Locate({}).empty());
    std::vector<Symbol> unused;
    ASSERT_FALSE(index.Extract(kInvalidDocId, 0, 1, &unused));
    ASSERT_EQ(index.DocLenOf(next_id + 1000), 0u);
  }
  index.Flush();
  index.CheckInvariants();
  ASSERT_EQ(index.num_docs(), model.num_docs());
  ASSERT_EQ(index.live_symbols(), model.live_symbols());
}

TEST(ServeSharded, DocDifferentialChurnAcrossShardCounts) {
  for (uint32_t shards : {1u, 2u, 3u, 4u}) {
    RunShardedDocChurn(shards, Backend::kT2, 7000 + shards, 35);
  }
}

TEST(ServeSharded, DocDifferentialChurnBaselineBackend) {
  for (uint32_t shards : {1u, 4u}) {
    RunShardedDocChurn(shards, Backend::kBaseline, 7100 + shards, 30);
  }
}

TEST(ServeSharded, DocDifferentialChurnT1Backend) {
  RunShardedDocChurn(3, Backend::kT1, 7201, 30);
}

// A cold bulk batch bigger than any shard's C0 exercises the per-shard bulk
// build path end to end and the global-id scatter: 64 x 40 symbols give
// each of four shards 640 symbols, ten times min_c0, so T2 shards build a
// top collection rather than fill C0.
TEST(ServeSharded, ColdBulkBatchSpreadsAndAnswers) {
  Rng rng(424242);
  std::vector<std::vector<Symbol>> docs;
  ReferenceModel model;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(UniformText(rng, 40, kSigma));
  }
  for (Backend backend : {Backend::kBaseline, Backend::kT2}) {
    for (uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string("backend=") + BackendName(backend) +
                   " shards=" + std::to_string(shards));
      ShardedIndex index(shards, backend, SmallDocOptions());
      std::vector<DocId> ids = index.InsertBatch(docs);
      ASSERT_EQ(ids.size(), docs.size());
      for (uint64_t i = 0; i < docs.size(); ++i) {
        ASSERT_EQ(ids[i], i);  // dense sequential minting from cold start
        model.Insert(ids[i], docs[i]);
      }
      index.CheckInvariants();
      for (int q = 0; q < 8; ++q) {
        auto pattern = SamplePattern(rng, docs, rng.Range(1, 5), kSigma);
        auto got = index.Locate(pattern);
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, model.Find(pattern));
        ASSERT_EQ(index.Count(pattern), got.size());
      }
      model = ReferenceModel();
    }
  }
}

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

constexpr uint32_t kObjects = 48;
constexpr uint32_t kLabels = 40;

RelationIndexOptions TightRelOptions() {
  RelationIndexOptions opt;
  opt.min_c0 = 16;
  opt.tau = 3;
  opt.baseline_max_objects = kObjects;
  opt.baseline_max_labels = kLabels;
  return opt;
}

void RunShardedRelationChurn(uint32_t shards, RelationBackend backend,
                             uint64_t seed, int rounds) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " backend=" + RelationBackendName(backend) +
               " seed=" + std::to_string(seed));
  ShardedRelation rel(shards, backend, TightRelOptions());
  PairSet model;
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    if (rng.Below(10) < 6 || model.size() < 8) {
      RelationPairs batch;
      uint64_t n = rng.Range(1, 80);
      uint64_t fresh = 0;
      for (uint64_t i = 0; i < n; ++i) {
        uint32_t o = static_cast<uint32_t>(rng.Below(kObjects));
        uint32_t a = static_cast<uint32_t>(rng.Below(kLabels));
        batch.push_back({o, a});
        fresh += model.insert({o, a}).second ? 1 : 0;
      }
      ASSERT_EQ(rel.AddPairsBatch(batch), fresh) << "round=" << round;
    } else {
      RelationPairs batch;
      uint64_t present = 0;
      uint64_t m = rng.Range(1, 30);
      for (uint64_t i = 0; i < m; ++i) {
        if (!model.empty() && rng.Chance(0.7)) {
          auto it = model.begin();
          std::advance(it, static_cast<int64_t>(rng.Below(model.size())));
          batch.push_back(*it);
          model.erase(it);
          ++present;
        } else {
          batch.push_back({static_cast<uint32_t>(rng.Below(kObjects)),
                           static_cast<uint32_t>(rng.Below(kLabels))});
          present += model.erase(batch.back()) > 0;
        }
      }
      ASSERT_EQ(rel.RemovePairsBatch(batch), present) << "round=" << round;
    }
    // Object-keyed single-shard queries.
    uint32_t o = static_cast<uint32_t>(rng.Below(kObjects));
    std::vector<uint32_t> labels = rel.LabelsOf(o);
    std::sort(labels.begin(), labels.end());
    std::vector<uint32_t> expect_labels;
    for (auto [oo, aa] : model) {
      if (oo == o) expect_labels.push_back(aa);
    }
    ASSERT_EQ(labels, expect_labels) << "round=" << round << " o=" << o;
    ASSERT_EQ(rel.CountLabelsOf(o), expect_labels.size());
    // Label-keyed fanned-out queries.
    uint32_t a = static_cast<uint32_t>(rng.Below(kLabels));
    ShardEpochs epochs;
    std::vector<uint32_t> objects = rel.ObjectsOf(a, &epochs);
    ASSERT_EQ(epochs.size(), shards);
    std::sort(objects.begin(), objects.end());
    std::vector<uint32_t> expect_objects;
    for (auto [oo, aa] : model) {
      if (aa == a) expect_objects.push_back(oo);
    }
    ASSERT_EQ(objects, expect_objects) << "round=" << round << " a=" << a;
    ASSERT_EQ(rel.CountObjectsOf(a), expect_objects.size());
    ASSERT_EQ(rel.num_pairs(), model.size());
    uint32_t po = static_cast<uint32_t>(rng.Below(kObjects));
    uint32_t pa = static_cast<uint32_t>(rng.Below(kLabels));
    ASSERT_EQ(rel.Related(po, pa), model.count({po, pa}) > 0);
  }
  rel.CheckInvariants();
}

TEST(ServeSharded, RelationDifferentialChurnTheorem2) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    RunShardedRelationChurn(shards, RelationBackend::kTheorem2,
                            8000 + shards, 40);
  }
}

TEST(ServeSharded, RelationDifferentialChurnBaseline) {
  for (uint32_t shards : {1u, 3u}) {
    RunShardedRelationChurn(shards, RelationBackend::kBaseline,
                            8100 + shards, 35);
  }
}

TEST(ServeSharded, RelationDifferentialChurnDeletionOnly) {
  RunShardedRelationChurn(3, RelationBackend::kDeletionOnly, 8201, 30);
}

TEST(ServeSharded, RelationDifferentialChurnFast) {
  for (uint32_t shards : {1u, 3u}) {
    RunShardedRelationChurn(shards, RelationBackend::kFast, 8300 + shards, 40);
  }
}

TEST(ServeSharded, GraphViewRoutesThroughShards) {
  ShardedRelation graph(4, RelationBackend::kGraph, TightRelOptions());
  ASSERT_EQ(graph.AddEdgesBatch({{1, 2}, {1, 3}, {2, 1}, {7, 2}}), 4u);
  ASSERT_TRUE(graph.HasEdge(1, 2));
  std::vector<uint32_t> out = graph.Neighbors(1);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out, (std::vector<uint32_t>{2, 3}));
  ShardEpochs epochs;
  std::vector<uint32_t> in = graph.Reverse(2, &epochs);
  std::sort(in.begin(), in.end());
  ASSERT_EQ(in, (std::vector<uint32_t>{1, 7}));
  ASSERT_EQ(epochs.size(), 4u);
  ASSERT_EQ(graph.OutDegree(1), 2u);
  ASSERT_EQ(graph.InDegree(2), 2u);
  ASSERT_EQ(graph.num_edges(), 4u);
  ASSERT_EQ(graph.RemoveEdgesBatch({{1, 2}, {9, 9}}), 1u);
  ASSERT_EQ(graph.num_edges(), 3u);
  graph.CheckInvariants();
}

}  // namespace
}  // namespace dyndex

// Durability plumbing of the serving facades: ShardedIndex / ShardedRelation
// bound to a MemEnv directory, at K = 1 (the unsharded case, state under
// db/shard-0/) and at K >= 2 — batch logging, checkpointing, crash-and-reopen
// recovery, the group-commit window, and the loud-refusal paths (mismatched
// backend, mismatched shard count, corrupt snapshot, vanished shard state,
// a single-core directory, a foreign record kind in a core's WAL).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "persist/env.h"
#include "persist/status.h"
#include "serve/dynamic_index.h"
#include "serve/epoch_guard.h"
#include "serve/persistence.h"
#include "serve/relation_index.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"

namespace dyndex {
namespace {

using persist::MemEnv;

std::vector<Symbol> Doc(int tag, int len) {
  std::vector<Symbol> doc;
  doc.reserve(len);
  for (int i = 0; i < len; ++i) {
    doc.push_back(kMinSymbol + static_cast<Symbol>((tag * 31 + i * 7) % 13));
  }
  return doc;
}

/// Asserts that `facade` serves exactly the documents in `model`
/// (id -> symbols), checking membership, content, and the doc count.
template <typename Facade>
void ExpectServes(Facade& facade,
                  const std::map<DocId, std::vector<Symbol>>& model) {
  EXPECT_EQ(facade.num_docs(), model.size());
  for (const auto& [id, symbols] : model) {
    std::vector<Symbol> got;
    ASSERT_TRUE(facade.Extract(id, 0, symbols.size(), &got)) << "id=" << id;
    EXPECT_EQ(got, symbols) << "id=" << id;
  }
}

class IndexDurabilityTest : public ::testing::TestWithParam<Backend> {};

TEST_P(IndexDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    EXPECT_TRUE(index.durable());
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::vector<Symbol>> docs;
      for (int d = 0; d < 4; ++d) docs.push_back(Doc(batch * 4 + d, 6 + d));
      std::vector<DocId> ids = index.InsertBatch(docs);
      ASSERT_EQ(ids.size(), docs.size());
      for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    }
    std::vector<DocId> dead = {model.begin()->first,
                               std::next(model.begin(), 5)->first};
    EXPECT_EQ(index.EraseBatch(dead), 2u);
    for (DocId id : dead) model.erase(id);
    // No CloseDurable: the facade just vanishes, as in a crash. Every batch
    // was synced (default group-commit window of 1), so nothing may be lost.
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 4u);  // 3 inserts + 1 erase
  EXPECT_EQ(stats.dropped_wal_bytes, 0u);
  EXPECT_EQ(reopened.epochs()[0], 4u);
  ExpectServes(reopened, model);
  // The recovered facade keeps logging: a post-recovery batch must survive
  // the next reopen too.
  std::vector<DocId> extra = reopened.InsertBatch({Doc(99, 9)});
  ASSERT_EQ(extra.size(), 1u);
  model[extra[0]] = Doc(99, 9);
  ASSERT_TRUE(reopened.CloseDurable().ok());
  EXPECT_FALSE(reopened.durable());

  ShardedIndex again(1, GetParam());
  ASSERT_TRUE(again.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 5u);
  ExpectServes(again, model);
}

TEST_P(IndexDurabilityTest, CheckpointCutsTheReplayTail) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<DocId> ids = index.InsertBatch({Doc(batch, 8)});
      model[ids[0]] = Doc(batch, 8);
      if (batch == 2) {
        ASSERT_TRUE(index.Checkpoint().ok());
      }
    }
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_seq, 3u);     // checkpoint after the third batch
  EXPECT_EQ(stats.replayed_batches, 1u)  // only the fourth replays
      << "checkpoint did not reset the WAL";
  ExpectServes(reopened, model);
  // Ids minted after recovery must not collide with snapshot-restored ids.
  std::vector<DocId> fresh = reopened.InsertBatch({Doc(50, 5)});
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(model.count(fresh[0]), 0u);
}

TEST_P(IndexDurabilityTest, GroupCommitWindowLosesOnlyTheUnsyncedTail) {
  MemEnv env;
  DurableOptions opt;
  opt.sync_every_batches = 3;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db", opt).ok());
    for (int batch = 0; batch < 5; ++batch) {
      index.InsertBatch({Doc(batch, 8)});
    }
    // Batches 1-3 hit the window and synced; 4-5 sit in the page cache.
    env.SimulateCrash();
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", opt, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 3u);
  EXPECT_EQ(reopened.num_docs(), 3u);
}

TEST_P(IndexDurabilityTest, SyncWalNarrowsTheLossWindowToZero) {
  MemEnv env;
  DurableOptions opt;
  opt.sync_every_batches = 100;  // effectively manual
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db", opt).ok());
    index.InsertBatch({Doc(0, 8), Doc(1, 8)});
    ASSERT_TRUE(index.SyncWal().ok());
    env.SimulateCrash();
  }
  ShardedIndex reopened(1, GetParam());
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", opt).ok());
  EXPECT_EQ(reopened.num_docs(), 2u);
}

TEST_P(IndexDurabilityTest, ColdBulkBatchReplaysFromTheWalAlone) {
  // 80 x 64 symbols exceed the default C0 capacity (min_c0 = 4096), so a
  // backend with a cold bulk path takes it both when the batch is applied
  // and when its WAL record is replayed into the reopened, empty index.
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(1, GetParam());
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    std::vector<std::vector<Symbol>> docs;
    for (int d = 0; d < 80; ++d) docs.push_back(Doc(d, 64));
    std::vector<DocId> ids = index.InsertBatch(docs);
    ASSERT_EQ(ids.size(), docs.size());
    for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    env.SimulateCrash();  // no checkpoint: the WAL record is all there is
  }
  ShardedIndex reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 1u);
  ExpectServes(reopened, model);
  // Doc(t, 64) repeats with t mod 13, so the whole document recurs.
  uint64_t copies = 0;
  for (const auto& [id, symbols] : model) copies += symbols == Doc(7, 64);
  EXPECT_EQ(reopened.Count(Doc(7, 64)), copies);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, IndexDurabilityTest,
                         ::testing::Values(Backend::kT1, Backend::kT2,
                                           Backend::kT3, Backend::kBaseline),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(IndexDurabilityRefusalTest, BackendMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(1, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 8)});
    ASSERT_TRUE(index.Checkpoint().ok());
  }
  ShardedIndex other(1, Backend::kBaseline);
  persist::Status s = other.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(other.durable());
  // The MANIFEST refuses the facade first, so open the shard's core
  // directly: the snapshot's own meta must refuse a foreign backend too.
  EpochGuard<DynamicIndex> core(MakeDynamicIndex(Backend::kBaseline));
  std::unique_ptr<serve_persist::DurableLog> log;
  s = serve_persist::OpenDurableCore(&env, "db/shard-0", {}, core, &log,
                                     nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find(BackendName(Backend::kT1)), std::string::npos)
      << s.ToString();
  EXPECT_EQ(log, nullptr);
}

TEST(IndexDurabilityRefusalTest, CorruptSnapshotIsLoudNotEmpty) {
  MemEnv env;
  {
    ShardedIndex index(1, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 64)});
    ASSERT_TRUE(index.Checkpoint().ok());
  }
  ASSERT_TRUE(env.CorruptByte("db/shard-0/SNAPSHOT", 40, 0x08).ok());
  ShardedIndex reopened(1, Backend::kT1);
  persist::Status s = reopened.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(reopened.num_docs(), 0u);
  EXPECT_FALSE(reopened.durable());
}

TEST(IndexDurabilityRefusalTest, RelationWalInAnIndexDirIsLoud) {
  MemEnv env;
  {
    ShardedRelation relation(1, RelationBackend::kBaseline);
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 2}});
  }
  // The MANIFEST refuses the facade first (IndexManifestRefusedByRelation
  // checks the mirror case), so open the shard's core directly: a relation
  // record replayed into an index core is corruption.
  EpochGuard<DynamicIndex> core(MakeDynamicIndex(Backend::kT1));
  std::unique_ptr<serve_persist::DurableLog> log;
  persist::Status s = serve_persist::OpenDurableCore(&env, "db/shard-0", {},
                                                     core, &log, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

class RelationDurabilityTest
    : public ::testing::TestWithParam<RelationBackend> {};

TEST_P(RelationDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  RelationPairs live;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    EXPECT_EQ(relation.AddPairsBatch({{1, 10}, {1, 11}, {2, 10}, {3, 12}}),
              4u);
    EXPECT_EQ(relation.RemovePairsBatch({{1, 11}, {9, 9}}), 1u);
    EXPECT_EQ(relation.AddPairsBatch({{4, 13}}), 1u);
    live = {{1, 10}, {2, 10}, {3, 12}, {4, 13}};
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_EQ(stats.replayed_batches, 3u);
  EXPECT_EQ(reopened.num_pairs(), live.size());
  for (const auto& [object, label] : live) {
    EXPECT_TRUE(reopened.Related(object, label))
        << object << " -> " << label;
  }
  EXPECT_FALSE(reopened.Related(1, 11));
  EXPECT_EQ(reopened.LabelsOf(1), std::vector<uint32_t>{10});
}

TEST_P(RelationDurabilityTest, CheckpointCompactsRemovals) {
  MemEnv env;
  {
    ShardedRelation relation(1, GetParam());
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 10}, {2, 20}, {3, 30}});
    relation.RemovePairsBatch({{2, 20}});
    ASSERT_TRUE(relation.Checkpoint().ok());
    relation.AddPairsBatch({{5, 50}});
  }
  ShardedRelation reopened(1, GetParam());
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_seq, 2u);
  EXPECT_EQ(stats.replayed_batches, 1u);
  EXPECT_EQ(reopened.num_pairs(), 3u);
  EXPECT_TRUE(reopened.Related(1, 10));
  EXPECT_FALSE(reopened.Related(2, 20));
  EXPECT_TRUE(reopened.Related(5, 50));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RelationDurabilityTest,
                         ::testing::Values(RelationBackend::kTheorem2,
                                           RelationBackend::kBaseline,
                                           RelationBackend::kGraph,
                                           RelationBackend::kDeletionOnly,
                                           RelationBackend::kFast),
                         [](const auto& info) {
                           return RelationBackendName(info.param);
                         });

TEST(ShardedIndexDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    EXPECT_TRUE(index.durable());
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<std::vector<Symbol>> docs;
      for (int d = 0; d < 5; ++d) docs.push_back(Doc(batch * 5 + d, 6));
      std::vector<DocId> ids = index.InsertBatch(docs);
      for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    }
    std::vector<DocId> dead = {model.begin()->first,
                               std::next(model.begin(), 7)->first};
    EXPECT_EQ(index.EraseBatch(dead), 2u);
    for (DocId id : dead) model.erase(id);
  }
  ShardedIndex reopened(3, Backend::kT1);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_GE(stats.replayed_batches, 3u);  // per-shard sub-batches, summed
  ExpectServes(reopened, model);
  reopened.CheckInvariants();
  // Round-robin placement resumes without colliding with recovered ids.
  std::vector<std::vector<Symbol>> fresh_docs = {Doc(90, 6), Doc(91, 6),
                                                 Doc(92, 6)};
  std::vector<DocId> fresh = reopened.InsertBatch(fresh_docs);
  ASSERT_EQ(fresh.size(), fresh_docs.size());
  for (size_t d = 0; d < fresh.size(); ++d) {
    ASSERT_NE(fresh[d], kInvalidDocId);
    EXPECT_EQ(model.count(fresh[d]), 0u);
    model[fresh[d]] = fresh_docs[d];
  }
  ExpectServes(reopened, model);
}

TEST(ShardedIndexDurabilityTest, CheckpointAllShardsAndReopen) {
  MemEnv env;
  std::map<DocId, std::vector<Symbol>> model;
  {
    ShardedIndex index(2, Backend::kBaseline);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    std::vector<std::vector<Symbol>> docs;
    for (int d = 0; d < 6; ++d) docs.push_back(Doc(d, 7));
    std::vector<DocId> ids = index.InsertBatch(docs);
    for (size_t d = 0; d < docs.size(); ++d) model[ids[d]] = docs[d];
    ASSERT_TRUE(index.Checkpoint().ok());
    std::vector<DocId> more = index.InsertBatch({Doc(40, 7)});
    model[more[0]] = Doc(40, 7);
    ASSERT_TRUE(index.CloseDurable().ok());
  }
  ShardedIndex reopened(2, Backend::kBaseline);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.replayed_batches, 1u);  // one shard got the straggler
  ExpectServes(reopened, model);
}

TEST(ShardedIndexDurabilityTest, ShardCountMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 6)});
  }
  ShardedIndex wrong(4, Backend::kT1);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_FALSE(wrong.durable());
}

TEST(ShardedIndexDurabilityTest, BackendMismatchIsLoud) {
  MemEnv env;
  {
    ShardedIndex index(2, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  }
  ShardedIndex wrong(2, Backend::kBaseline);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedIndexDurabilityTest, VanishedShardIsLoudNotPartial) {
  MemEnv env;
  {
    ShardedIndex index(3, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
    index.InsertBatch({Doc(0, 6), Doc(1, 6), Doc(2, 6)});
  }
  ASSERT_TRUE(env.DeleteFile("db/shard-1/WAL").ok());
  ShardedIndex reopened(3, Backend::kT1);
  persist::Status s = reopened.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_FALSE(reopened.durable());
}

TEST(ShardedRelationDurabilityTest, RoundTripThroughCrash) {
  MemEnv env;
  RelationPairs live;
  {
    ShardedRelation relation(3, RelationBackend::kTheorem2);
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    RelationPairs pairs;
    for (uint32_t i = 0; i < 24; ++i) pairs.push_back({i, 100 + i % 5});
    EXPECT_EQ(relation.AddPairsBatch(pairs), pairs.size());
    RelationPairs dead = {{0, 100}, {7, 102}};
    EXPECT_EQ(relation.RemovePairsBatch(dead), 2u);
    for (const auto& p : pairs) {
      if (p != dead[0] && p != dead[1]) live.push_back(p);
    }
    ASSERT_TRUE(relation.Checkpoint().ok());
    EXPECT_EQ(relation.AddPairsBatch({{50, 500}}), 1u);
    live.push_back({50, 500});
  }
  ShardedRelation reopened(3, RelationBackend::kTheorem2);
  RecoveryStats stats;
  ASSERT_TRUE(reopened.OpenDurable(&env, "db", {}, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(reopened.num_pairs(), live.size());
  for (const auto& [object, label] : live) {
    EXPECT_TRUE(reopened.Related(object, label))
        << object << " -> " << label;
  }
  EXPECT_FALSE(reopened.Related(0, 100));
  reopened.CheckInvariants();
}

TEST(ShardedRelationDurabilityTest, ShardCountMismatchIsLoud) {
  MemEnv env;
  {
    ShardedRelation relation(2, RelationBackend::kBaseline);
    ASSERT_TRUE(relation.OpenDurable(&env, "db").ok());
    relation.AddPairsBatch({{1, 2}});
  }
  ShardedRelation wrong(3, RelationBackend::kBaseline);
  persist::Status s = wrong.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(ShardedRelationDurabilityTest, IndexManifestRefusedByRelation) {
  MemEnv env;
  {
    ShardedIndex index(2, Backend::kT1);
    ASSERT_TRUE(index.OpenDurable(&env, "db").ok());
  }
  ShardedRelation relation(2, RelationBackend::kTheorem2);
  persist::Status s = relation.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

// --- single-core directories ----------------------------------------------
//
// A directory whose state sits directly in <dir>/WAL and <dir>/SNAPSHOT (one
// core, no MANIFEST) must be refused by a sharded facade, not shadowed by a
// fresh, empty sharded store written beside it.

std::string ReadFile(MemEnv& env, const std::string& path) {
  std::unique_ptr<persist::RandomAccessFile> file;
  uint64_t size = 0;
  std::string out;
  EXPECT_TRUE(env.NewRandomAccessFile(path, &file).ok()) << path;
  EXPECT_TRUE(env.GetFileSize(path, &size).ok()) << path;
  EXPECT_TRUE(file->Read(0, size, &out).ok()) << path;
  return out;
}

/// Writes a single-core layout at `dir` through the core-level open: one
/// logged batch, a checkpoint, and one more logged batch.
template <typename B, typename Apply>
void WriteSingleCoreLayout(MemEnv& env, const std::string& dir,
                           std::unique_ptr<B> backend, const Apply& apply,
                           const std::string& payload) {
  EpochGuard<B> core(std::move(backend));
  std::unique_ptr<serve_persist::DurableLog> log;
  ASSERT_TRUE(
      serve_persist::OpenDurableCore(&env, dir, {}, core, &log, nullptr).ok());
  for (int batch = 0; batch < 2; ++batch) {
    core.Write([&](B& b) {
      apply(b);
      log->writer_role().AssertHeld();
      log->LogApplied(payload);
    });
    log->writer_role().AssertHeld();
    ASSERT_TRUE(log->Sync().ok());
    if (batch == 0) {
      ASSERT_TRUE(serve_persist::CheckpointCore(core, *log).ok());
    }
  }
  log->writer_role().AssertHeld();
  ASSERT_TRUE(log->Close().ok());
}

template <typename Facade>
void ExpectSingleCoreLayoutRefused(MemEnv& env, Facade& facade) {
  const std::string wal = ReadFile(env, "db/WAL");
  const std::string snapshot = ReadFile(env, "db/SNAPSHOT");
  persist::Status s = facade.OpenDurable(&env, "db");
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("single-core"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(facade.durable());
  EXPECT_FALSE(env.FileExists("db/MANIFEST"));
  EXPECT_FALSE(env.FileExists("db/shard-0/WAL"));
  EXPECT_EQ(ReadFile(env, "db/WAL"), wal);
  EXPECT_EQ(ReadFile(env, "db/SNAPSHOT"), snapshot);
}

TEST(SingleCoreLayoutTest, ShardedIndexRefusesIt) {
  MemEnv env;
  const std::vector<std::vector<Symbol>> docs = {Doc(0, 8), Doc(1, 8)};
  WriteSingleCoreLayout(
      env, "db", MakeDynamicIndex(Backend::kT1),
      [&](DynamicIndex& idx) { idx.InsertBulk(docs); },
      serve_persist::EncodeInsertBatch(docs));
  ShardedIndex index(1, Backend::kT1);
  ExpectSingleCoreLayoutRefused(env, index);
  EXPECT_EQ(index.num_docs(), 0u);
}

TEST(SingleCoreLayoutTest, ShardedRelationRefusesIt) {
  MemEnv env;
  const RelationPairs pairs = {{1, 2}, {3, 4}};
  WriteSingleCoreLayout(
      env, "db", MakeRelationIndex(RelationBackend::kTheorem2),
      [&](RelationIndex& rel) { rel.AddPairsBulk(pairs); },
      serve_persist::EncodePairsBatch(serve_persist::WalOp::kAddPairs, pairs));
  ShardedRelation relation(1, RelationBackend::kTheorem2);
  ExpectSingleCoreLayoutRefused(env, relation);
  EXPECT_EQ(relation.num_pairs(), 0u);
}

}  // namespace
}  // namespace dyndex

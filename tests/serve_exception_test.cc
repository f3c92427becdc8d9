// Exception-safety contracts of the serving layer:
//
//  * EpochGuard::Write — a writer body that throws must unwind cleanly:
//    sequence restored to even (readers not wedged behind a forever-odd
//    seqlock), epoch unmoved (the batch never happened), writer gate
//    released, and the facade fully usable afterwards.
//  * ThreadPool::RunAll — a throwing slice must not skip its siblings (a
//    cross-shard batch may never half-apply by slice) and must surface the
//    first exception to the scatter-join caller instead of std::terminate.
//  * ShardedIndex — one shard's writer throwing leaves the other shards'
//    sub-batches applied and every shard serving.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "serve/thread_pool.h"

namespace dyndex {
namespace {

std::vector<Symbol> Doc(int tag) {
  return {kMinSymbol + static_cast<Symbol>(tag % 7), kMinSymbol,
          kMinSymbol + 1, kMinSymbol + static_cast<Symbol>(tag % 5)};
}

/// Delegating index whose mutations throw while the shared trigger is set —
/// the fault injector for the writer-unwind tests.
class ThrowingIndex final : public DynamicIndex {
 public:
  ThrowingIndex(std::unique_ptr<DynamicIndex> base,
                std::shared_ptr<std::atomic<bool>> throw_on_write)
      : base_(std::move(base)), throw_on_write_(std::move(throw_on_write)) {}

  DocId Insert(std::vector<Symbol> symbols) override {
    MaybeThrow();
    return base_->Insert(std::move(symbols));
  }
  bool Erase(DocId id) override {
    MaybeThrow();
    return base_->Erase(id);
  }
  std::vector<DocId> InsertBulk(
      std::vector<std::vector<Symbol>> docs) override {
    MaybeThrow();
    return base_->InsertBulk(std::move(docs));
  }

  uint64_t Count(const std::vector<Symbol>& pattern) const override {
    return base_->Count(pattern);
  }
  std::vector<Occurrence> Locate(
      const std::vector<Symbol>& pattern) const override {
    return base_->Locate(pattern);
  }
  std::vector<Symbol> Extract(DocId id, uint64_t from,
                              uint64_t len) const override {
    return base_->Extract(id, from, len);
  }
  bool Contains(DocId id) const override { return base_->Contains(id); }
  uint64_t DocLenOf(DocId id) const override { return base_->DocLenOf(id); }
  uint64_t num_docs() const override { return base_->num_docs(); }
  uint64_t live_symbols() const override { return base_->live_symbols(); }
  void ExportSnapshot(std::vector<Document>* docs, DocId* next_id) override {
    base_->ExportSnapshot(docs, next_id);
  }
  void LoadSnapshot(std::vector<Document> docs, DocId next_id) override {
    base_->LoadSnapshot(std::move(docs), next_id);
  }
  const char* backend_name() const override { return base_->backend_name(); }

 private:
  void MaybeThrow() {
    if (throw_on_write_->load()) {
      throw std::runtime_error("injected writer failure");
    }
  }

  std::unique_ptr<DynamicIndex> base_;
  std::shared_ptr<std::atomic<bool>> throw_on_write_;
};

TEST(EpochGuardExceptionTest, ThrowingWriterUnwindsCleanly) {
  auto trigger = std::make_shared<std::atomic<bool>>(false);
  ShardedIndex index(1, [&]() -> std::unique_ptr<DynamicIndex> {
    return std::make_unique<ThrowingIndex>(
        MakeDynamicIndex(Backend::kBaseline), trigger);
  });

  std::vector<DocId> ids = index.InsertBatch({Doc(1), Doc(2)});
  ASSERT_EQ(ids.size(), 2u);
  const uint64_t epoch_before = index.epochs()[0];
  ASSERT_EQ(index.seqs()[0] % 2, 0u);

  trigger->store(true);
  EXPECT_THROW(index.InsertBatch({Doc(3)}), std::runtime_error);
  EXPECT_THROW(index.EraseBatch({ids[0]}), std::runtime_error);
  trigger->store(false);

  // The failed batches never happened: sequence back to even (readers not
  // wedged), epoch unmoved, the pre-throw documents still served.
  EXPECT_EQ(index.seqs()[0] % 2, 0u);
  EXPECT_EQ(index.epochs()[0], epoch_before);
  EXPECT_EQ(index.num_docs(), 2u);
  std::vector<Symbol> out;
  EXPECT_TRUE(index.Extract(ids[0], 0, 4, &out));

  // And the writer gate was released: the next writer proceeds normally.
  std::vector<DocId> more = index.InsertBatch({Doc(4)});
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(index.epochs()[0], epoch_before + 1);
  EXPECT_EQ(index.num_docs(), 3u);
}

TEST(ThreadPoolExceptionTest, ScatteredThrowRunsEverySiblingThenRethrows) {
  ThreadPool pool(3);
  std::atomic<uint32_t> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 2) throw std::runtime_error("slice 2 failed");
    });
  }
  EXPECT_THROW(pool.RunAll(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 6u);

  // The pool survives: the next batch runs clean.
  std::atomic<uint32_t> again{0};
  std::vector<std::function<void()>> ok;
  for (int i = 0; i < 4; ++i) ok.push_back([&again] { again.fetch_add(1); });
  pool.RunAll(std::move(ok));
  EXPECT_EQ(again.load(), 4u);
}

TEST(ThreadPoolExceptionTest, InlineSliceThrowStillJoinsTheWorkers) {
  // tasks[0] runs inline on the caller; its exception must not skip the
  // join (workers still hold references into the caller's frame).
  ThreadPool pool(2);
  std::atomic<uint32_t> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&ran]() -> void {
    ran.fetch_add(1);
    throw std::runtime_error("inline slice failed");
  });
  for (int i = 0; i < 3; ++i) tasks.push_back([&ran] { ran.fetch_add(1); });
  EXPECT_THROW(pool.RunAll(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(ran.load(), 4u);
}

TEST(ThreadPoolExceptionTest, SequentialPathKeepsTheSameContract) {
  // 0 workers degenerates to an inline loop — same all-run + first-rethrow
  // contract, and deterministically the *first* exception in task order.
  ThreadPool pool(0);
  std::atomic<uint32_t> ran{0};
  std::vector<std::function<void()>> tasks;
  tasks.push_back([&ran]() -> void {
    ran.fetch_add(1);
    throw std::logic_error("first");
  });
  tasks.push_back([&ran] { ran.fetch_add(1); });
  tasks.push_back([&ran]() -> void {
    ran.fetch_add(1);
    throw std::runtime_error("second");
  });
  try {
    pool.RunAll(std::move(tasks));
    FAIL() << "RunAll swallowed the exceptions";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(ran.load(), 3u);
}

TEST(ShardedIndexExceptionTest, OneThrowingShardLeavesTheOthersApplied) {
  auto trigger = std::make_shared<std::atomic<bool>>(false);
  // The factory is called once per shard in shard order; shard 1 gets the
  // fault injector.
  int built = 0;
  ShardedIndex index(3, [&]() -> std::unique_ptr<DynamicIndex> {
    auto base = MakeDynamicIndex(Backend::kBaseline);
    if (built++ == 1) {
      return std::make_unique<ThrowingIndex>(std::move(base), trigger);
    }
    return base;
  });

  // Warm every shard, then fail shard 1's next sub-batch.
  std::vector<DocId> warm = index.InsertBatch({Doc(0), Doc(1), Doc(2)});
  ASSERT_EQ(warm.size(), 3u);
  ASSERT_EQ(index.num_docs(), 3u);

  trigger->store(true);
  EXPECT_THROW(index.InsertBatch({Doc(3), Doc(4), Doc(5)}),
               std::runtime_error);
  trigger->store(false);

  // Per-shard atomicity: the two healthy shards applied their slices, the
  // throwing shard rolled back to its pre-batch state, and every shard is
  // quiescent (even sequence) and serving.
  EXPECT_EQ(index.num_docs(), 5u);
  ShardSeqs seqs = index.seqs();
  for (uint64_t seq : seqs) EXPECT_EQ(seq % 2, 0u);
  for (DocId id : warm) {
    std::vector<Symbol> out;
    EXPECT_TRUE(index.Extract(id, 0, 4, &out)) << "id=" << id;
  }
  index.CheckInvariants();

  // The wedge-free facade takes the next batch normally.
  std::vector<DocId> after = index.InsertBatch({Doc(6), Doc(7), Doc(8)});
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(index.num_docs(), 8u);
}

}  // namespace
}  // namespace dyndex

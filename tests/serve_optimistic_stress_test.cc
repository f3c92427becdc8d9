// High-contention stress and deterministic protocol tests for the optimistic
// seqlock read path of EpochGuard (serve/epoch_guard.h).
//
// The stress scenarios run a toy backend whose state is published through
// SeqBox (util/seq_hash_map.h) — the same single-pointer immutable-snapshot
// discipline the real backends use — so every Read() result must be
// internally consistent no matter how the seqlock interleaves with the
// writer: validated optimistic reads saw a quiescent window, locked reads
// hold the shared lock, and torn attempts are discarded. The deterministic
// tests drive the retry, fallback, and reclamation machinery through the
// injectable read-interlope hook and the retry budget (max_attempts),
// including the budget-0 locked baseline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "gen/text_gen.h"
#include "serve/dynamic_index.h"
#include "serve/epoch_guard.h"
#include "serve/sharded_index.h"
#include "util/rng.h"
#include "util/seq_hash_map.h"

namespace dyndex {
namespace {

// --- toy backend ------------------------------------------------------------

/// State readers traverse with no lock: a SeqBox-published vector where every
/// entry equals the write generation, plus growth to force snapshot churn.
struct ToyBackend {
  SeqBox<std::vector<uint64_t>> data;
  uint64_t writes = 0;
};

struct ToySample {
  uint64_t len = 0;
  uint64_t first = 0;
  uint64_t sum = 0;
};

ToySample ReadToy(const ToyBackend& b) {
  ToySample out;
  if (const std::vector<uint64_t>* v = b.data.Load()) {
    out.len = v->size();
    if (!v->empty()) out.first = (*v)[0];
    for (uint64_t x : *v) out.sum += x;
  }
  return out;
}

/// One write generation: every entry becomes `gen`, and every few generations
/// the vector grows (Store retires the previous snapshot — reclamation load).
void WriteToy(ToyBackend& b, uint64_t gen) {
  std::vector<uint64_t> next = b.data.Copy();
  if (next.empty() || gen % 4 == 0) next.push_back(0);
  for (uint64_t& x : next) x = gen;
  b.data.Store(std::move(next));
  ++b.writes;
}

// --- high-contention stress -------------------------------------------------

/// N readers hammer the toy backend while a writer churns generations.
/// Asserts: (a) every Read() result is internally consistent (all entries
/// equal => sum == len * first), (b) the outcome counters account for every
/// read, (c) reclamation drains once quiesced.
void RunToyStress(uint32_t max_attempts, int readers, uint64_t writes,
                  uint64_t seed) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = max_attempts;
  guard.set_optimistic_policy(policy);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> total_reads{0};
  std::atomic<uint64_t> inconsistent{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&, r] {
      Rng rng(seed * 977 + static_cast<uint64_t>(r));
      uint64_t n = 0;
      while (!done.load(std::memory_order_acquire)) {
        uint64_t epoch = 0;
        ToySample s = guard.Read(
            &epoch, [](const ToyBackend& b) { return ReadToy(b); });
        if (s.sum != s.len * s.first) {
          inconsistent.fetch_add(1, std::memory_order_relaxed);
        }
        ++n;
        if (rng.Below(64) == 0) std::this_thread::yield();
      }
      total_reads.fetch_add(n, std::memory_order_relaxed);
    });
  }
  for (uint64_t g = 1; g <= writes; ++g) {
    guard.Write([g](ToyBackend& b) { WriteToy(b, g); });
    if (g % 16 == 0) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();

  EXPECT_EQ(inconsistent.load(), 0u);
  EXPECT_GT(total_reads.load(), 0u);
  const OptimisticStats stats = guard.optimistic_stats();
  // Every Read() ends exactly one way: validated lock-free or served under
  // the shared lock (fallback, budget 0, or slot exhaustion).
  EXPECT_EQ(stats.validated + stats.locked_reads, total_reads.load());
  if (max_attempts == 0) {
    EXPECT_EQ(stats.attempts, 0u);
    EXPECT_EQ(stats.locked_reads, total_reads.load());
  } else {
    EXPECT_GT(stats.attempts, 0u);
  }
  guard.Read(nullptr, [&](const ToyBackend& b) {
    EXPECT_EQ(b.writes, writes);
    return 0;
  });
  // Quiesced: every parked snapshot's grace period is closed.
  guard.ReclaimRetired();
  EXPECT_EQ(guard.retired_pending(), 0u);
}

TEST(ServeOptimisticStress, HighContentionValidatedReaders) {
  RunToyStress(/*max_attempts=*/3, /*readers=*/4, /*writes=*/4000,
               /*seed=*/42);
}

TEST(ServeOptimisticStress, HighContentionTinyBudget) {
  // max_attempts=1: any validation failure falls straight back to the lock,
  // so the fallback path runs hot under the same consistency assertions.
  RunToyStress(/*max_attempts=*/1, /*readers=*/4, /*writes=*/4000,
               /*seed=*/1337);
}

TEST(ServeOptimisticStress, HighContentionLockedBaseline) {
  RunToyStress(/*max_attempts=*/0, /*readers=*/4, /*writes=*/2000,
               /*seed=*/7);
}

// --- deterministic retry / fallback ----------------------------------------

TEST(ServeOptimisticStress, InterlopedWriteForcesRetryThenFallback) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  guard.Write([](ToyBackend& b) { WriteToy(b, 1); });
  OptimisticPolicy policy;
  policy.max_attempts = 2;
  guard.set_optimistic_policy(policy);
  // The hook runs after each optimistic attempt, before validation; a
  // Maintain() there moves the sequence, so every attempt must be discarded
  // and the read must exhaust its budget and take the lock.
  guard.set_read_interlope([&] { guard.Maintain([](ToyBackend&) {}); });
  const OptimisticStats before = guard.optimistic_stats();
  ToySample s =
      guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  guard.set_read_interlope(nullptr);
  EXPECT_EQ(s.sum, s.len * s.first);
  const OptimisticStats after = guard.optimistic_stats();
  EXPECT_EQ(after.attempts - before.attempts, 2u);
  EXPECT_EQ(after.retries - before.retries, 2u);
  EXPECT_EQ(after.validated - before.validated, 0u);
  EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
  EXPECT_EQ(after.locked_reads - before.locked_reads, 1u);
}

TEST(ServeOptimisticStress, ZeroBudgetNeverAttempts) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = 0;
  guard.set_optimistic_policy(policy);
  for (int i = 0; i < 8; ++i) {
    guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  }
  const OptimisticStats stats = guard.optimistic_stats();
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.validated, 0u);
  EXPECT_EQ(stats.locked_reads, 8u);
}

// --- deterministic reclamation ----------------------------------------------

struct DtorFlag {
  explicit DtorFlag(bool* flag) : flag_(flag) {}
  DtorFlag(DtorFlag&& o) noexcept : flag_(o.flag_) { o.flag_ = nullptr; }
  DtorFlag& operator=(DtorFlag&&) = delete;
  ~DtorFlag() {
    if (flag_ != nullptr) *flag_ = true;
  }
  bool* flag_;
};

TEST(ServeOptimisticStress, ReclamationWaitsForInFlightReader) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  OptimisticPolicy policy;
  policy.max_attempts = 1;
  guard.set_optimistic_policy(policy);
  bool destroyed = false;
  uint64_t pending_during_read = 0;
  // The hook fires while this reader's slot still publishes the pre-write
  // sequence, so the write's retired batch must survive the drain at the end
  // of the exclusive section: the reader could still be traversing it.
  guard.set_read_interlope([&] {
    guard.Write([&](ToyBackend&) { Retire(DtorFlag(&destroyed)); });
    pending_during_read = guard.retired_pending();
  });
  guard.Read(nullptr, [](const ToyBackend& b) { return ReadToy(b); });
  guard.set_read_interlope(nullptr);
  EXPECT_GE(pending_during_read, 1u);
  EXPECT_FALSE(destroyed);  // grace period still open at park time
  // Reader finished (slot released): the grace period is closed.
  guard.ReclaimRetired();
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(guard.retired_pending(), 0u);
}

TEST(ServeOptimisticStress, RetireWithNoReaderFreesAtSectionEnd) {
  EpochGuard<ToyBackend> guard(std::make_unique<ToyBackend>());
  bool destroyed = false;
  guard.Write([&](ToyBackend&) { Retire(DtorFlag(&destroyed)); });
  // No reader slot was active, so the end-of-section drain freed the batch.
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(guard.retired_pending(), 0u);
}

// --- full stack under a tiny retry budget ------------------------------------

/// Immortal-document extraction against a one-shard ShardedIndex while a
/// writer churns batches, with max_attempts=1 so validation failures
/// exercise the fallback path through the whole T2 backend stack.
TEST(ServeOptimisticStress, IndexChurnTinyBudget) {
  constexpr uint32_t kSigma = 4;
  constexpr uint32_t kNumImmortal = 4;
  Rng rng(2024);
  std::vector<std::vector<Symbol>> immortal;
  for (uint32_t i = 0; i < kNumImmortal; ++i) {
    immortal.push_back(UniformText(rng, rng.Range(8, 40), kSigma));
  }
  DynamicIndexOptions opt;
  opt.min_c0 = 64;
  opt.mode = RebuildMode::kThreaded;
  ShardedIndex index(1, Backend::kT2, opt);
  OptimisticPolicy policy;
  policy.max_attempts = 1;
  index.set_optimistic_policy(policy);
  index.InsertBatch(immortal);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < 4; ++r) {
    pool.emplace_back([&, r] {
      Rng rd(5000 + static_cast<uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        DocId id = rd.Below(kNumImmortal);
        std::vector<Symbol> got;
        uint64_t epoch = 0;
        bool present =
            index.Extract(id, 0, immortal[id].size(), &got, &epoch);
        if (!present || got != immortal[id]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  Rng wr(6000);
  std::vector<DocId> churn;
  for (int b = 0; b < 60; ++b) {
    std::vector<DocId> ids = index.InsertBatch(
        {UniformText(wr, wr.Range(10, 120), kSigma)});
    churn.insert(churn.end(), ids.begin(), ids.end());
    if (churn.size() > 8) {
      std::vector<DocId> victims(churn.begin(), churn.begin() + 4);
      churn.erase(churn.begin(), churn.begin() + 4);
      index.EraseBatch(victims);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const OptimisticStats stats = index.optimistic_stats();
  EXPECT_GT(stats.attempts, 0u);
  index.Flush();
  index.CheckInvariants();
}

// --- starvation regression under a continuous writer -------------------------

/// The PR-7 regression: a writer looping batches back-to-back must not
/// starve the validated lock-free read path. With write pacing enabled
/// (unconditional mode: every admission waits out a 2 ms even window) the
/// validated count has to keep accruing in every measurement window while
/// the writer demonstrably keeps making progress — and the writer must
/// actually have been paced. Runs under TSan via the concurrency label
/// (lock-assisted attempts there still validate and count).
TEST(ServeOptimisticStress, PacedWriterNeverStarvesValidatedReaders) {
  constexpr uint32_t kSigma = 4;
  Rng rng(909);
  DynamicIndexOptions opt;
  opt.min_c0 = 64;
  opt.mode = RebuildMode::kThreaded;
  ShardedIndex index(1, Backend::kT2, opt);
  std::vector<std::vector<Symbol>> docs;
  for (int i = 0; i < 8; ++i) {
    docs.push_back(UniformText(rng, rng.Range(16, 64), kSigma));
  }
  index.InsertBatch(docs);
  OptimisticPolicy policy;
  policy.max_attempts = 3;
  index.set_optimistic_policy(policy);
  PacingPolicy pacing;
  pacing.min_even_window_us = 2000;
  pacing.max_delay_us = 2000;
  pacing.stall_threshold = 0;
  index.set_pacing_policy(pacing);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> batches{0};
  std::thread writer([&] {
    Rng wr(910);
    std::vector<DocId> churn;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<DocId> ids =
          index.InsertBatch({UniformText(wr, wr.Range(16, 64), kSigma)});
      churn.insert(churn.end(), ids.begin(), ids.end());
      if (churn.size() > 8) {
        std::vector<DocId> victims(churn.begin(), churn.begin() + 4);
        churn.erase(churn.begin(), churn.begin() + 4);
        index.EraseBatch(victims);
      }
      batches.fetch_add(1, std::memory_order_release);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rd(920 + static_cast<uint64_t>(r));
      std::vector<Symbol> pattern(2);
      while (!done.load(std::memory_order_acquire)) {
        pattern[0] = static_cast<Symbol>(rd.Below(kSigma));
        pattern[1] = static_cast<Symbol>(rd.Below(kSigma));
        uint64_t c = index.Count(pattern);
        (void)c;
      }
    });
  }
  // Four measurement windows, each scoped by *writer progress* (>= 3 more
  // batches) rather than wall clock, so the assertion is exactly "while the
  // writer loops continuously, validated lock-free reads keep accruing".
  for (int window = 0; window < 4; ++window) {
    const uint64_t v0 = index.optimistic_stats().validated;
    const uint64_t b0 = batches.load(std::memory_order_acquire);
    while (batches.load(std::memory_order_acquire) < b0 + 3) {
      std::this_thread::yield();
    }
    EXPECT_GT(index.optimistic_stats().validated, v0)
        << "no validated lock-free read in window " << window;
  }
  done.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  const OptimisticStats stats = index.optimistic_stats();
  EXPECT_GE(stats.validated, 64u);  // the floor: readers ran lock-free
  EXPECT_GT(index.pacing_stats().waits, 0u);  // the writer really was paced
  index.Flush();
  index.CheckInvariants();
}

}  // namespace
}  // namespace dyndex

// Concurrent serving throughput: queries/second at 1/2/4/8 reader threads
// against a one-shard ShardedIndex (the unsharded facade) over Transformation 2
// (threaded rebuilds), with and without a live writer applying batched updates,
// and with the optimistic seqlock read path on (optimistic:1, the default
// policy) vs pinned to the shared lock (optimistic:0, the locked baseline).
// Rows also report the read-path outcome counters (validated / retries /
// fallbacks, the fallback-cause split capture_exhausted / retries_exhausted /
// locked_reads) and the writer's batch count, so the JSON shows both sides of
// the tradeoff: lock-free readers stop throttling the writer, so writer_batches
// rises under optimistic:1 — and on few-core machines the now-unthrottled
// writer competes with readers for CPU, which can depress reader items/s even
// though no reader ever waits on the lock.
//
// The paced:1 rows measure the fix for exactly that starvation: with
// write pacing (PacingPolicy, see serve/epoch_guard.h) the writer holds
// the sequence even for a bounded window between consecutive batches, so
// readers get CPU and lock-free validation windows back; reader items/s
// recovers while writer_batches drops by the policy-controlled factor
// reported in the same row (pace_waits / pace_wait_us). This fixture uses
// the unconditional stall_threshold:0 mode (see BenchPacing below for
// why); the stall-conditional threshold>=1 handshake is exercised
// deterministically in tests/serve_pacing_test.cc. Compare adjacent rows
// (same fixture state): paced:1 vs paced:0 under optimistic:1, and
// optimistic:1 vs optimistic:0.
//
// This is the serving-path headline the dynamic-graph literature reports
// (concurrent-reader scaling): the paper's Figure 3 background-rebuild story
// only pays off if readers keep scaling while the writer churns levels.
//
// Each benchmark iteration runs `kQueriesPerReader` queries on each of R
// reader threads (plus one writer when writer:1) and reports aggregate
// items/s; UseRealTime makes the denominator wall-clock, so items/s is true
// aggregate throughput.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint64_t kCorpusSymbols = 1 << 17;
constexpr uint64_t kDocLen = 256;
constexpr uint32_t kSigma = 8;
constexpr uint64_t kPatternLen = 4;
constexpr uint32_t kNumPatterns = 64;
constexpr uint64_t kQueriesPerReader = 512;

/// Prebuilt serving index + query/update streams, shared across iterations.
struct ServeFixture {
  std::unique_ptr<ShardedIndex> index;
  std::vector<std::vector<Symbol>> patterns;
  std::vector<std::vector<Symbol>> update_docs;  // writer insert pool
  std::vector<DocId> churn_ids;                  // ids the writer cycles
};

ServeFixture* GetFixture() {
  static ServeFixture* fixture = [] {
    auto* f = new ServeFixture();
    const bench::Corpus& corpus =
        bench::GetCorpus(kCorpusSymbols, kSigma, kDocLen);
    DynamicIndexOptions opt;
    opt.mode = RebuildMode::kThreaded;
    opt.min_c0 = 4096;
    f->index = std::make_unique<ShardedIndex>(1, Backend::kT2, opt);
    f->index->InsertBatch(corpus.docs);
    f->index->Flush();
    f->patterns = bench::MakePatterns(corpus, kPatternLen, kNumPatterns);
    Rng rng(bench::kPatternSeed + 1);
    for (int i = 0; i < 64; ++i) {
      f->update_docs.push_back(MarkovText(rng, kDocLen, kSigma, 4));
    }
    return f;
  }();
  return fixture;
}

void ReaderWork(const ShardedIndex& index,
                const std::vector<std::vector<Symbol>>& patterns,
                uint64_t seed, uint64_t queries) {
  Rng rng(seed);
  for (uint64_t q = 0; q < queries; ++q) {
    uint64_t c = index.Count(patterns[rng.Below(patterns.size())]);
    benchmark::DoNotOptimize(c);
  }
}

/// Writer loop: balanced insert/erase batches so collection size stays flat
/// while levels keep churning (locks, background builds, swaps, replays).
void WriterWork(ServeFixture* f, const std::atomic<bool>& stop,
                uint64_t* batches) {
  uint64_t n = 0;
  while (!stop.load(std::memory_order_acquire)) {
    std::vector<DocId> ids = f->index->InsertBatch(
        {f->update_docs[n % f->update_docs.size()]});
    f->churn_ids.insert(f->churn_ids.end(), ids.begin(), ids.end());
    if (f->churn_ids.size() > 32) {
      std::vector<DocId> victims(f->churn_ids.begin(),
                                 f->churn_ids.begin() + 16);
      f->churn_ids.erase(f->churn_ids.begin(), f->churn_ids.begin() + 16);
      f->index->EraseBatch(victims);
    }
    ++n;
  }
  *batches = n;
}

/// Pacing knobs of the paced:1 rows. stall_threshold 0 is the unconditional
/// write-rate-limiter mode: every batch admission waits until the sequence
/// has been even for 5 ms (at most 5 ms of delay per batch). This fixture
/// needs the unconditional mode because T2's threaded rebuilds do the heavy
/// work on background builder threads *outside* the exclusive section — the
/// sequence stays mostly even and readers starve for CPU against the
/// builders, a regime the stalled-capture signal (threshold >= 1) cannot
/// see. The window is sized against the fixture's ~1 ms batches so the
/// paced writer's duty cycle (batch + spawned rebuild work) drops to
/// roughly a sixth, returning the CPU to readers.
PacingPolicy BenchPacing() {
  PacingPolicy pacing;
  pacing.min_even_window_us = 5000;
  pacing.max_delay_us = 5000;
  pacing.stall_threshold = 0;
  return pacing;
}

void BM_ServeConcurrentCount(benchmark::State& state) {
  ServeFixture* f = GetFixture();
  const int readers = static_cast<int>(state.range(0));
  const bool with_writer = state.range(1) != 0;
  const bool optimistic = state.range(2) != 0;
  const bool paced = state.range(3) != 0;
  // optimistic:0 pins every read to the shared lock — the locked baseline
  // the seqlock read path is compared against. paced:0 disables write
  // pacing — the unpaced (pre-pacing) writer behavior.
  OptimisticPolicy policy;
  policy.max_attempts = optimistic ? 3 : 0;
  f->index->set_optimistic_policy(policy);
  f->index->set_pacing_policy(paced ? BenchPacing() : PacingPolicy{});
  const OptimisticStats before = f->index->optimistic_stats();
  const PacingStats pace_before = f->index->pacing_stats();
  uint64_t round = 0;
  uint64_t writer_batches = 0;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::thread writer;
    uint64_t batches = 0;
    if (with_writer) {
      writer = std::thread(WriterWork, f, std::cref(stop), &batches);
    }
    std::vector<std::thread> pool;
    for (int r = 0; r < readers; ++r) {
      pool.emplace_back(ReaderWork, std::cref(*f->index),
                        std::cref(f->patterns), round * 131 + r,
                        kQueriesPerReader);
    }
    for (auto& t : pool) t.join();
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    writer_batches += batches;
    ++round;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * readers *
                          static_cast<int64_t>(kQueriesPerReader));
  state.counters["readers"] = readers;
  state.counters["writer"] = with_writer ? 1 : 0;
  state.counters["optimistic"] = optimistic ? 1 : 0;
  state.counters["paced"] = paced ? 1 : 0;
  state.counters["writer_batches"] = static_cast<double>(writer_batches);
  // Read-path outcome counters for this run (validated = lock-free
  // successes; locked_reads covers fallbacks and the locked baseline;
  // fallbacks == capture_exhausted + retries_exhausted splits writer
  // pressure from validation churn). pace_waits / pace_wait_us quantify
  // the writer-side cost of the paced rows.
  const OptimisticStats after = f->index->optimistic_stats();
  const PacingStats pace_after = f->index->pacing_stats();
  state.counters["validated"] =
      static_cast<double>(after.validated - before.validated);
  state.counters["retries"] =
      static_cast<double>(after.retries - before.retries);
  state.counters["fallbacks"] =
      static_cast<double>(after.fallbacks - before.fallbacks);
  state.counters["capture_exhausted"] = static_cast<double>(
      after.capture_exhausted - before.capture_exhausted);
  state.counters["retries_exhausted"] = static_cast<double>(
      after.retries_exhausted - before.retries_exhausted);
  state.counters["capture_stalled"] = static_cast<double>(
      after.capture_stalled - before.capture_stalled);
  state.counters["locked_reads"] =
      static_cast<double>(after.locked_reads - before.locked_reads);
  state.counters["pace_waits"] =
      static_cast<double>(pace_after.waits - pace_before.waits);
  state.counters["pace_wait_us"] =
      static_cast<double>(pace_after.wait_us - pace_before.wait_us);
}

// Adjacent rows are the comparable ones (the fixture index drifts as writer
// rows churn it): each writer-on reader count runs paced optimistic,
// unpaced optimistic, then the locked baseline back-to-back. Pacing without
// a writer is a no-op (no stalls accrue), so writer:0 rows only run
// paced:0.
BENCHMARK(BM_ServeConcurrentCount)
    ->ArgNames({"readers", "writer", "optimistic", "paced"})
    ->Args({1, 0, 1, 0})
    ->Args({1, 0, 0, 0})
    ->Args({2, 0, 1, 0})
    ->Args({2, 0, 0, 0})
    ->Args({4, 0, 1, 0})
    ->Args({4, 0, 0, 0})
    ->Args({8, 0, 1, 0})
    ->Args({8, 0, 0, 0})
    ->Args({1, 1, 1, 1})
    ->Args({1, 1, 1, 0})
    ->Args({1, 1, 0, 0})
    ->Args({2, 1, 1, 1})
    ->Args({2, 1, 1, 0})
    ->Args({2, 1, 0, 0})
    ->Args({4, 1, 1, 1})
    ->Args({4, 1, 1, 0})
    ->Args({4, 1, 0, 0})
    ->Args({8, 1, 1, 1})
    ->Args({8, 1, 1, 0})
    ->Args({8, 1, 0, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dyndex

BENCHMARK_MAIN();

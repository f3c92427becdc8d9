// Durability cost model: what a checkpoint costs, and what recovery buys.
//
//   SnapshotWrite    — Checkpoint() of a live one-shard ShardedIndex (export
//                      under the maintenance lock + checksummed snapshot
//                      write + WAL reset) at 2^17..2^20 live symbols.
//   RecoverSnapshot  — OpenDurable() against a checkpointed directory: one
//                      verified snapshot read + LoadSnapshot (the baseline
//                      backend routes it onto its bulk SA-IS build).
//   RecoverWalReplay — OpenDurable() against a checkpoint-free directory:
//                      every batch replays through the facade write path.
//   ColdRebuild      — the non-durable reference: the same documents bulk
//                      inserted into a fresh facade (what a restart costs
//                      WITHOUT persistence, assuming the data survived
//                      somewhere else).
//
// All on MemEnv, so rows measure the CPU/format cost of the durability
// mechanics, not disk hardware. The headline comparison is
// RecoverSnapshot vs RecoverWalReplay vs ColdRebuild at 2^20 symbols.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/env.h"
#include "serve/dynamic_index.h"
#include "serve/persistence.h"
#include "serve/sharded_index.h"
#include "util/check.h"
#include "util/rng.h"

namespace dyndex {
namespace {

constexpr uint64_t kDocLen = 64;
constexpr uint32_t kSigma = 16;
constexpr uint64_t kBatchDocs = 256;

/// 2^20 symbols is 16384 documents; give the baseline backend's separator
/// pool headroom beyond its 4096 default.
DynamicIndexOptions IndexOpts() {
  DynamicIndexOptions opt;
  opt.baseline_max_docs = 1u << 15;
  return opt;
}

/// Deterministic corpus of `total_symbols / kDocLen` documents.
const std::vector<std::vector<Symbol>>& GetDocs(uint64_t total_symbols) {
  static auto* cache = new std::map<uint64_t, std::vector<std::vector<Symbol>>>();
  auto it = cache->find(total_symbols);
  if (it == cache->end()) {
    Rng rng(1234);
    std::vector<std::vector<Symbol>> docs(total_symbols / kDocLen);
    for (auto& doc : docs) {
      doc.resize(kDocLen);
      for (Symbol& s : doc) {
        s = kMinSymbol + static_cast<Symbol>(rng.Below(kSigma));
      }
    }
    it = cache->emplace(total_symbols, std::move(docs)).first;
  }
  return it->second;
}

/// Populates a durable facade over `env` at `dir` with the corpus, in
/// kBatchDocs-document batches; optionally checkpoints at the end.
void Populate(persist::Env* env, const std::string& dir,
              uint64_t total_symbols, bool checkpoint) {
  const auto& docs = GetDocs(total_symbols);
  ShardedIndex index(1, Backend::kBaseline, IndexOpts());
  DurableOptions opt;
  opt.sync_every_batches = 16;
  DYNDEX_CHECK(index.OpenDurable(env, dir, opt).ok());
  for (uint64_t at = 0; at < docs.size(); at += kBatchDocs) {
    const uint64_t n = std::min<uint64_t>(kBatchDocs, docs.size() - at);
    std::vector<std::vector<Symbol>> batch(docs.begin() + at,
                                           docs.begin() + at + n);
    index.InsertBatch(std::move(batch));
  }
  if (checkpoint) DYNDEX_CHECK(index.Checkpoint().ok());
  DYNDEX_CHECK(index.CloseDurable().ok());
}

void BM_Persist_SnapshotWrite(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  persist::MemEnv env;
  const auto& docs = GetDocs(total);
  ShardedIndex index(1, Backend::kBaseline, IndexOpts());
  DYNDEX_CHECK(index.OpenDurable(&env, "db").ok());
  index.InsertBatch(docs);
  for (auto _ : state) {
    DYNDEX_CHECK(index.Checkpoint().ok());
  }
  uint64_t snap_size = 0;
  DYNDEX_CHECK(env.GetFileSize("db/shard-0/SNAPSHOT", &snap_size).ok());
  state.counters["snapshot_bytes"] = static_cast<double>(snap_size);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}

void BM_Persist_RecoverSnapshot(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  persist::MemEnv env;
  Populate(&env, "db", total, /*checkpoint=*/true);
  for (auto _ : state) {
    ShardedIndex index(1, Backend::kBaseline, IndexOpts());
    RecoveryStats stats;
    DYNDEX_CHECK(index.OpenDurable(&env, "db", {}, &stats).ok());
    DYNDEX_CHECK(stats.snapshot_loaded && stats.replayed_batches == 0);
    benchmark::DoNotOptimize(index.num_docs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}

void BM_Persist_RecoverWalReplay(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  persist::MemEnv env;
  Populate(&env, "db", total, /*checkpoint=*/false);
  for (auto _ : state) {
    ShardedIndex index(1, Backend::kBaseline, IndexOpts());
    RecoveryStats stats;
    DYNDEX_CHECK(index.OpenDurable(&env, "db", {}, &stats).ok());
    DYNDEX_CHECK(!stats.snapshot_loaded && stats.replayed_batches > 0);
    benchmark::DoNotOptimize(index.num_docs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}

void BM_Persist_ColdRebuild(benchmark::State& state) {
  const uint64_t total = static_cast<uint64_t>(state.range(0));
  const auto& docs = GetDocs(total);
  for (auto _ : state) {
    ShardedIndex index(1, Backend::kBaseline, IndexOpts());
    index.InsertBatch(docs);
    benchmark::DoNotOptimize(index.num_docs());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(total));
}

BENCHMARK(BM_Persist_SnapshotWrite)->Arg(1 << 17)->Arg(1 << 20);
BENCHMARK(BM_Persist_RecoverSnapshot)->Arg(1 << 17)->Arg(1 << 20);
BENCHMARK(BM_Persist_RecoverWalReplay)->Arg(1 << 17)->Arg(1 << 20);
BENCHMARK(BM_Persist_ColdRebuild)->Arg(1 << 17)->Arg(1 << 20);

}  // namespace
}  // namespace dyndex

BENCHMARK_MAIN();

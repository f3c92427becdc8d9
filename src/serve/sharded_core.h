// The sharded serving core shared by ShardedIndex and ShardedRelation: K
// independent EpochGuard<Backend> shards on one scatter-join pool, plus
// everything about them that does not depend on what the backend stores —
// the epoch/sequence vectors, policy fan-out and stats sums, the fan-out
// read and the per-shard write step, and the durable open / checkpoint /
// sync / close of the per-shard directories under one MANIFEST. The
// facades derive from it and add only the partitioner, the queries and the
// batch split. One shard (K = 1) is the unsharded case: the pool has no
// workers, and a fanned-out read is a direct call on the one shard.
//
// Durable layout under `dir`: shard s's snapshot + WAL live in
// `<dir>/shard-<s>/`, and one MANIFEST in `dir` binds the state kind, the
// shard count and the backend. Reopening with a different K or backend,
// with a bound shard's log missing, or on a single-core directory (a bare
// `<dir>/WAL` or `<dir>/SNAPSHOT` with no MANIFEST) is refused loudly
// instead of silently serving a partial or empty collection. Recovery fans
// out across the pool (one shard per worker). Batch writers may run
// concurrently afterwards: each shard's WAL is only touched inside that
// shard's exclusive section (including the group-commit fsync).
// OpenDurable / Checkpoint / SyncWal / CloseDurable themselves require
// writer quiescence.
#ifndef DYNDEX_SERVE_SHARDED_CORE_H_
#define DYNDEX_SERVE_SHARDED_CORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "persist/env.h"
#include "persist/status.h"
#include "serve/dynamic_index.h"
#include "serve/epoch_guard.h"
#include "serve/persistence.h"
#include "serve/relation_index.h"
#include "serve/thread_pool.h"

namespace dyndex {

/// Per-shard epochs observed by one fanned-out query (index = shard).
using ShardEpochs = std::vector<uint64_t>;

/// Per-shard seqlock words (index = shard; even = quiescent). The cheap
/// change-detection poll of the sharded facades: a shard whose sequence is
/// unchanged between two polls served no write in between.
using ShardSeqs = std::vector<uint64_t>;

namespace shard_internal {

/// Merges per-shard counts.
struct SumOf {
  template <typename T>
  uint64_t operator()(const std::vector<T>& part) const {
    uint64_t total = 0;
    for (const T& v : part) total += v;
    return total;
  }
};

/// Concatenates the per-shard slices in shard order.
struct Flatten {
  template <typename T>
  std::vector<T> operator()(std::vector<std::vector<T>> part) const {
    uint64_t total = 0;
    for (const auto& p : part) total += p.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& p : part) out.insert(out.end(), p.begin(), p.end());
    return out;
  }
};

}  // namespace shard_internal

template <typename Backend>
class ShardedCore {
 public:
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Current per-shard epochs (not a consistent cross-shard snapshot; use
  /// the per-query epoch outputs for linearization).
  ShardEpochs epochs() const;
  /// Current per-shard sequence words (plain atomic loads).
  ShardSeqs seqs() const;

  /// Optimistic read-path knobs / counters, fanned to every shard's core
  /// (see serve/epoch_guard.h). Policies are atomic snapshots — settable
  /// at any time.
  void set_optimistic_policy(const OptimisticPolicy& policy);
  /// Counters summed across shards.
  OptimisticStats optimistic_stats() const;
  /// Write pacing, fanned to every shard's core. Shards pace independently:
  /// each shard's writer gate keys on that shard's own stalled readers and
  /// sleeps before taking that shard's lock (never inside one), so a paced
  /// shard cannot delay batches bound for quiet shards.
  void set_pacing_policy(const PacingPolicy& policy);
  /// Pacing counters summed across shards.
  PacingStats pacing_stats() const;
  /// Retired-but-not-yet-reclaimed batches summed across shards.
  uint64_t retired_pending() const;

  // --- durability (see the header comment and serve/persistence.h) --------

  persist::Status OpenDurable(persist::Env* env, const std::string& dir,
                              const DurableOptions& opt = {},
                              RecoveryStats* stats = nullptr);
  /// Checkpoints every shard in parallel: snapshot + WAL reset per shard.
  persist::Status Checkpoint();
  /// Forces every shard's WAL to disk; surfaces sticky append/sync failures.
  persist::Status SyncWal();
  /// Final sync + detach; the facade keeps serving, un-durably.
  persist::Status CloseDurable();
  bool durable() const { return !logs_.empty(); }

  const char* backend_name() const {
    return shards_[0]->unsynchronized().backend_name();
  }

  /// Structural self-check across all shards (takes each shard's shared
  /// lock in turn).
  void CheckInvariants() const;

  /// Shard s's backend, with no locking. Callers must guarantee quiescence.
  Backend& unsynchronized_shard(uint32_t s) {
    return shards_[s]->unsynchronized();
  }

 protected:
  /// K shards, each built by `shard_factory` (K independent instances). The
  /// pool holds K-1 workers: the calling thread always executes one shard's
  /// slice itself. `kind` is what the MANIFEST records.
  ShardedCore(uint32_t num_shards,
              const std::function<std::unique_ptr<Backend>()>& shard_factory,
              serve_persist::StateKind kind);
  ~ShardedCore() = default;

  /// The fan-out behind every merged query: scatter per_shard(s, &epoch)
  /// across all shards on the pool, join, fill `epochs` when requested, and
  /// merge the per-shard results (in shard order). With one shard it is a
  /// direct call, and allocates nothing when `epochs` is null.
  template <typename PerShard, typename Merge>
  auto FanOutRead(ShardEpochs* epochs, const PerShard& per_shard,
                  const Merge& merge) const {
    using R = std::invoke_result_t<const PerShard&, uint32_t, uint64_t*>;
    const uint32_t k = num_shards();
    if (k == 1) {
      uint64_t epoch = 0;
      R result = per_shard(0, &epoch);
      if (epochs != nullptr) epochs->assign(1, epoch);
      return result;
    }
    std::vector<R> part(k);
    ShardEpochs eps(k, 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(k);
    for (uint32_t s = 0; s < k; ++s) {
      tasks.push_back(
          [&part, &eps, &per_shard, s] { part[s] = per_shard(s, &eps[s]); });
    }
    pool_.RunAll(std::move(tasks));
    if (epochs != nullptr) *epochs = std::move(eps);
    return R(merge(std::move(part)));
  }

  /// The per-shard write step of every batch call. For each non-empty slice
  /// sub[s], in parallel on the pool: encode its WAL payload when durable
  /// (before the apply, which may consume the slice), then inside shard s's
  /// exclusive section run apply(backend, sub[s]), append the frame and run
  /// the group commit — so concurrent batch writers never share a WAL.
  /// Returns each shard's apply result, in shard order; untouched shards
  /// keep their epoch and report a default-constructed result.
  template <typename Slice, typename Encode, typename Apply>
  auto WriteSlices(std::vector<Slice>& sub, const Encode& encode,
                   const Apply& apply) {
    using R = std::invoke_result_t<const Apply&, Backend&, Slice&>;
    std::vector<R> part(num_shards());
    std::vector<std::function<void()>> tasks;
    for (uint32_t s = 0; s < num_shards(); ++s) {
      if (sub[s].empty()) continue;
      tasks.push_back([this, s, &sub, &part, &encode, &apply] {
        std::string payload;
        serve_persist::DurableLog* log =
            logs_.empty() ? nullptr : logs_[s].get();
        if (log != nullptr) payload = encode(sub[s]);
        part[s] = shards_[s]->Write([&](Backend& b) {
          auto result = apply(b, sub[s]);
          if (log != nullptr) {
            // Inside this shard's exclusive section: the pool worker is the
            // shard log's writer for the batch.
            log->writer_role().AssertHeld();
            log->LogApplied(payload);
            log->MaybeSync();
          }
          return result;
        });
      });
    }
    pool_.RunAll(std::move(tasks));
    return part;
  }

  std::vector<std::unique_ptr<EpochGuard<Backend>>> shards_;
  mutable ThreadPool pool_;

 private:
  serve_persist::StateKind kind_;
  /// Per-shard durable logs; empty until OpenDurable (then index = shard).
  std::vector<std::unique_ptr<serve_persist::DurableLog>> logs_;
};

extern template class ShardedCore<DynamicIndex>;
extern template class ShardedCore<RelationIndex>;

}  // namespace dyndex

#endif  // DYNDEX_SERVE_SHARDED_CORE_H_

#include "serve/sharded_core.h"

#include <string>
#include <utility>

#include "util/check.h"

namespace dyndex {

template <typename Backend>
ShardedCore<Backend>::ShardedCore(
    uint32_t num_shards,
    const std::function<std::unique_ptr<Backend>()>& shard_factory,
    serve_persist::StateKind kind)
    : pool_(num_shards > 0 ? num_shards - 1 : 0), kind_(kind) {
  DYNDEX_CHECK(num_shards >= 1);
  shards_.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<EpochGuard<Backend>>(shard_factory()));
  }
}

template <typename Backend>
ShardEpochs ShardedCore<Backend>::epochs() const {
  ShardEpochs eps(num_shards(), 0);
  for (uint32_t s = 0; s < num_shards(); ++s) eps[s] = shards_[s]->epoch();
  return eps;
}

template <typename Backend>
ShardSeqs ShardedCore<Backend>::seqs() const {
  ShardSeqs sq(num_shards(), 0);
  for (uint32_t s = 0; s < num_shards(); ++s) sq[s] = shards_[s]->sequence();
  return sq;
}

template <typename Backend>
void ShardedCore<Backend>::set_optimistic_policy(
    const OptimisticPolicy& policy) {
  for (auto& shard : shards_) shard->set_optimistic_policy(policy);
}

template <typename Backend>
OptimisticStats ShardedCore<Backend>::optimistic_stats() const {
  OptimisticStats total;
  for (const auto& shard : shards_) {
    const OptimisticStats s = shard->optimistic_stats();
    total.attempts += s.attempts;
    total.validated += s.validated;
    total.retries += s.retries;
    total.fallbacks += s.fallbacks;
    total.capture_exhausted += s.capture_exhausted;
    total.retries_exhausted += s.retries_exhausted;
    total.capture_stalled += s.capture_stalled;
    total.locked_reads += s.locked_reads;
  }
  return total;
}

template <typename Backend>
void ShardedCore<Backend>::set_pacing_policy(const PacingPolicy& policy) {
  for (auto& shard : shards_) shard->set_pacing_policy(policy);
}

template <typename Backend>
PacingStats ShardedCore<Backend>::pacing_stats() const {
  PacingStats total;
  for (const auto& shard : shards_) {
    const PacingStats s = shard->pacing_stats();
    total.waits += s.waits;
    total.wait_us += s.wait_us;
  }
  return total;
}

template <typename Backend>
uint64_t ShardedCore<Backend>::retired_pending() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->retired_pending();
  return total;
}

template <typename Backend>
persist::Status ShardedCore<Backend>::OpenDurable(persist::Env* env,
                                                  const std::string& dir,
                                                  const DurableOptions& opt,
                                                  RecoveryStats* stats) {
  DYNDEX_CHECK(logs_.empty());
  const uint32_t k = num_shards();
  DYNDEX_RETURN_IF_ERROR(env->CreateDir(dir));

  serve_persist::SnapshotMeta manifest;
  persist::Status ms = serve_persist::ReadManifest(env, dir, &manifest);
  const bool fresh = ms.IsNotFound();
  if (!fresh) {
    DYNDEX_RETURN_IF_ERROR(ms);  // a damaged manifest is loud, not "fresh"
    DYNDEX_RETURN_IF_ERROR(
        serve_persist::CheckManifest(manifest, kind_, k, backend_name()));
  } else if (env->FileExists(dir + "/" + serve_persist::kWalFileName) ||
             env->FileExists(dir + "/" + serve_persist::kSnapshotFileName)) {
    // A bare WAL/SNAPSHOT with no MANIFEST is the single-core layout; its
    // state lives beside the shard directories, so it must not be shadowed
    // by a fresh, empty sharded store.
    return persist::Status::InvalidArgument(
        dir + " holds a single-core durable layout (WAL/SNAPSHOT without a "
              "MANIFEST); a sharded facade does not read it");
  }

  std::vector<std::string> shard_dirs(k);
  for (uint32_t s = 0; s < k; ++s) {
    shard_dirs[s] = dir + "/shard-" + std::to_string(s);
    if (!fresh && !env->FileExists(shard_dirs[s] + "/" +
                                   serve_persist::kWalFileName)) {
      // The manifest binds this shard; its vanished state must not be served
      // as an empty shard.
      return persist::Status::Corruption(
          "manifest binds shard " + std::to_string(s) +
          " but its durable state is missing");
    }
  }

  // Parallel recovery: shards are independent (own dir, own core, own log).
  std::vector<std::unique_ptr<serve_persist::DurableLog>> logs(k);
  std::vector<persist::Status> st(k);
  std::vector<RecoveryStats> shard_stats(k);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([this, s, env, &opt, &shard_dirs, &logs, &st,
                     &shard_stats] {
      st[s] = serve_persist::OpenDurableCore(
          env, shard_dirs[s], opt, *shards_[s], &logs[s], &shard_stats[s]);
    });
  }
  pool_.RunAll(std::move(tasks));
  for (uint32_t s = 0; s < k; ++s) DYNDEX_RETURN_IF_ERROR(st[s]);

  if (fresh) {
    serve_persist::SnapshotMeta meta;
    meta.kind = kind_;
    meta.backend = backend_name();
    meta.num_shards = k;
    DYNDEX_RETURN_IF_ERROR(serve_persist::WriteManifest(env, dir, meta));
  }

  if (stats != nullptr) {
    RecoveryStats total;
    for (const RecoveryStats& s : shard_stats) {
      total.snapshot_loaded |= s.snapshot_loaded;
      total.snapshot_seq += s.snapshot_seq;
      total.replayed_batches += s.replayed_batches;
      total.skipped_frames += s.skipped_frames;
      total.dropped_wal_bytes += s.dropped_wal_bytes;
    }
    *stats = total;
  }
  logs_ = std::move(logs);
  return persist::Status::Ok();
}

template <typename Backend>
persist::Status ShardedCore<Backend>::Checkpoint() {
  DYNDEX_CHECK(!logs_.empty());
  const uint32_t k = num_shards();
  std::vector<persist::Status> st(k);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(k);
  for (uint32_t s = 0; s < k; ++s) {
    tasks.push_back([this, s, &st] {
      st[s] = serve_persist::CheckpointCore(*shards_[s], *logs_[s]);
    });
  }
  pool_.RunAll(std::move(tasks));
  for (uint32_t s = 0; s < k; ++s) DYNDEX_RETURN_IF_ERROR(st[s]);
  return persist::Status::Ok();
}

template <typename Backend>
persist::Status ShardedCore<Backend>::SyncWal() {
  DYNDEX_CHECK(!logs_.empty());
  // Durability entry points run quiesced (no concurrent batch writers), so
  // this thread holds every shard log's writer role.
  for (auto& log : logs_) {
    log->writer_role().AssertHeld();
    DYNDEX_RETURN_IF_ERROR(log->Sync());
  }
  return persist::Status::Ok();
}

template <typename Backend>
persist::Status ShardedCore<Backend>::CloseDurable() {
  DYNDEX_CHECK(!logs_.empty());
  persist::Status first = persist::Status::Ok();
  for (auto& log : logs_) {
    log->writer_role().AssertHeld();
    persist::Status s = log->Close();
    if (first.ok()) first = s;
  }
  logs_.clear();
  return first;
}

template <typename Backend>
void ShardedCore<Backend>::CheckInvariants() const {
  for (const auto& shard : shards_) {
    shard->Read(nullptr, [](const Backend& b) { b.CheckInvariants(); });
  }
}

template class ShardedCore<DynamicIndex>;
template class ShardedCore<RelationIndex>;

}  // namespace dyndex

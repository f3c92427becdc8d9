#include "serve/sharded_index.h"

#include <string>
#include <utility>

namespace dyndex {

ShardedIndex::ShardedIndex(
    uint32_t num_shards,
    const std::function<std::unique_ptr<DynamicIndex>()>& shard_factory)
    : ShardedCore(num_shards, shard_factory,
                  serve_persist::StateKind::kShardedIndex) {}

ShardedIndex::ShardedIndex(uint32_t num_shards, Backend backend,
                           const DynamicIndexOptions& opt)
    : ShardedIndex(num_shards,
                   [&] { return MakeDynamicIndex(backend, opt); }) {}

uint64_t ShardedIndex::Count(const std::vector<Symbol>& pattern,
                             ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(epoch, [&](const DynamicIndex& idx) {
          return idx.Count(pattern);
        });
      },
      shard_internal::SumOf{});
}

std::vector<Occurrence> ShardedIndex::Locate(
    const std::vector<Symbol>& pattern, ShardEpochs* epochs) const {
  const uint32_t k = num_shards();
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        std::vector<Occurrence> occs =
            shards_[s]->Read(epoch, [&](const DynamicIndex& idx) {
              return idx.Locate(pattern);
            });
        // Shard-local ids -> global ids.
        for (Occurrence& occ : occs) occ.doc = occ.doc * k + s;
        return occs;
      },
      shard_internal::Flatten{});
}

bool ShardedIndex::Extract(DocId id, uint64_t from, uint64_t len,
                           std::vector<Symbol>* out, uint64_t* epoch) const {
  if (id == kInvalidDocId) {
    if (epoch != nullptr) *epoch = shards_[0]->epoch();
    return false;
  }
  const uint32_t s = shard_of(id);
  const DocId local = id / num_shards();
  // Buffer into the lambda's return value, never into *out directly: a
  // discarded optimistic attempt re-runs the lambda, and the contract is
  // that *out stays untouched on false (and on any abandoned attempt).
  auto result =
      shards_[s]->Read(epoch, [&](const DynamicIndex& idx)
                                  -> std::pair<bool, std::vector<Symbol>> {
        if (!idx.Contains(local)) return {false, {}};
        return {true, idx.Extract(local, from, len)};
      });
  if (!result.first) return false;
  *out = std::move(result.second);
  return true;
}

bool ShardedIndex::Contains(DocId id, uint64_t* epoch) const {
  if (id == kInvalidDocId) {
    if (epoch != nullptr) *epoch = shards_[0]->epoch();
    return false;
  }
  const uint32_t s = shard_of(id);
  const DocId local = id / num_shards();
  return shards_[s]->Read(
      epoch, [&](const DynamicIndex& idx) { return idx.Contains(local); });
}

uint64_t ShardedIndex::DocLenOf(DocId id, uint64_t* epoch) const {
  if (id == kInvalidDocId) {
    if (epoch != nullptr) *epoch = shards_[0]->epoch();
    return 0;
  }
  const uint32_t s = shard_of(id);
  const DocId local = id / num_shards();
  return shards_[s]->Read(
      epoch, [&](const DynamicIndex& idx) { return idx.DocLenOf(local); });
}

uint64_t ShardedIndex::num_docs(ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(
            epoch, [](const DynamicIndex& idx) { return idx.num_docs(); });
      },
      shard_internal::SumOf{});
}

uint64_t ShardedIndex::live_symbols(ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(epoch, [](const DynamicIndex& idx) {
          return idx.live_symbols();
        });
      },
      shard_internal::SumOf{});
}

std::vector<DocId> ShardedIndex::InsertBatch(
    std::vector<std::vector<Symbol>> docs) {
  const uint32_t k = num_shards();
  std::vector<DocId> out(docs.size(), kInvalidDocId);
  if (docs.empty()) return out;
  // Round-robin placement from a shared cursor: deterministic for a single
  // writer, balanced under concurrent writers.
  const uint64_t start =
      next_place_.fetch_add(docs.size(), std::memory_order_relaxed);
  std::vector<std::vector<std::vector<Symbol>>> sub(k);
  std::vector<std::vector<uint64_t>> positions(k);
  for (uint64_t i = 0; i < docs.size(); ++i) {
    const uint32_t s = static_cast<uint32_t>((start + i) % k);
    sub[s].push_back(std::move(docs[i]));
    positions[s].push_back(i);
  }
  std::vector<std::vector<DocId>> local = WriteSlices(
      sub,
      [](const std::vector<std::vector<Symbol>>& slice) {
        return serve_persist::EncodeInsertBatch(slice);
      },
      [](DynamicIndex& idx, std::vector<std::vector<Symbol>>& slice) {
        return idx.InsertBulk(std::move(slice));
      });
  for (uint32_t s = 0; s < k; ++s) {
    for (uint64_t j = 0; j < local[s].size(); ++j) {
      const DocId id = local[s][j];
      out[positions[s][j]] = id == kInvalidDocId ? kInvalidDocId : id * k + s;
    }
  }
  return out;
}

uint64_t ShardedIndex::EraseBatch(const std::vector<DocId>& ids) {
  const uint32_t k = num_shards();
  std::vector<std::vector<DocId>> sub(k);
  for (DocId id : ids) {
    if (id == kInvalidDocId) continue;
    sub[shard_of(id)].push_back(id / k);
  }
  return shard_internal::SumOf{}(WriteSlices(
      sub,
      [](const std::vector<DocId>& slice) {
        return serve_persist::EncodeEraseBatch(slice);
      },
      [](DynamicIndex& idx, const std::vector<DocId>& slice) {
        uint64_t n = 0;
        for (DocId local : slice) n += idx.Erase(local);
        return n;
      }));
}

void ShardedIndex::Poll() {
  for (auto& shard : shards_) {
    shard->Maintain([](DynamicIndex& idx) { idx.PollPending(); });
  }
}

void ShardedIndex::Flush() {
  std::vector<std::function<void()>> tasks;
  tasks.reserve(shards_.size());
  for (auto& shard : shards_) {
    tasks.push_back([&shard] {
      shard->Maintain([](DynamicIndex& idx) { idx.ForceAllPending(); });
    });
  }
  pool_.RunAll(std::move(tasks));
}

persist::Status ShardedIndex::OpenDurable(persist::Env* env,
                                          const std::string& dir,
                                          const DurableOptions& opt,
                                          RecoveryStats* stats) {
  DYNDEX_RETURN_IF_ERROR(ShardedCore::OpenDurable(env, dir, opt, stats));
  // Placement cursor: balance-only (ids are minted by the shards), so any
  // reasonable restart point works; total live docs keeps round-robin fair.
  uint64_t total_docs = 0;
  for (auto& shard : shards_) total_docs += shard->unsynchronized().num_docs();
  next_place_.store(total_docs, std::memory_order_relaxed);
  return persist::Status::Ok();
}

}  // namespace dyndex

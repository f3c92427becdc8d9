#include "serve/sharded_relation.h"

#include <cstdint>
#include <vector>

namespace dyndex {

namespace {

/// SplitMix64 finalizer: a stable, well-mixed hash so consecutive object ids
/// (the common external id pattern) spread evenly across shards.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ShardedRelation::ShardedRelation(
    uint32_t num_shards,
    const std::function<std::unique_ptr<RelationIndex>()>& shard_factory)
    : ShardedCore(num_shards, shard_factory,
                  serve_persist::StateKind::kShardedRelation) {}

ShardedRelation::ShardedRelation(uint32_t num_shards, RelationBackend backend,
                                 const RelationIndexOptions& opt)
    : ShardedRelation(num_shards,
                      [&] { return MakeRelationIndex(backend, opt); }) {}

uint32_t ShardedRelation::shard_of_object(uint32_t object) const {
  return static_cast<uint32_t>(MixId(object) % shards_.size());
}

bool ShardedRelation::Related(uint32_t object, uint32_t label,
                              uint64_t* epoch) const {
  return shards_[shard_of_object(object)]->Read(
      epoch,
      [&](const RelationIndex& rel) { return rel.Related(object, label); });
}

std::vector<uint32_t> ShardedRelation::LabelsOf(uint32_t object,
                                                uint64_t* epoch) const {
  return shards_[shard_of_object(object)]->Read(
      epoch, [&](const RelationIndex& rel) { return rel.LabelsOf(object); });
}

uint64_t ShardedRelation::CountLabelsOf(uint32_t object,
                                        uint64_t* epoch) const {
  return shards_[shard_of_object(object)]->Read(
      epoch,
      [&](const RelationIndex& rel) { return rel.CountLabelsOf(object); });
}

std::vector<uint32_t> ShardedRelation::ObjectsOf(uint32_t label,
                                                 ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(epoch, [&](const RelationIndex& rel) {
          return rel.ObjectsOf(label);
        });
      },
      shard_internal::Flatten{});
}

uint64_t ShardedRelation::CountObjectsOf(uint32_t label,
                                         ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(epoch, [&](const RelationIndex& rel) {
          return rel.CountObjectsOf(label);
        });
      },
      shard_internal::SumOf{});
}

uint64_t ShardedRelation::num_pairs(ShardEpochs* epochs) const {
  return FanOutRead(
      epochs,
      [&](uint32_t s, uint64_t* epoch) {
        return shards_[s]->Read(
            epoch, [](const RelationIndex& rel) { return rel.num_pairs(); });
      },
      shard_internal::SumOf{});
}

uint64_t ShardedRelation::AddPairsBatch(const RelationPairs& pairs) {
  const uint32_t k = num_shards();
  std::vector<RelationPairs> sub(k);
  for (auto [o, a] : pairs) sub[shard_of_object(o)].push_back({o, a});
  return shard_internal::SumOf{}(WriteSlices(
      sub,
      [](const RelationPairs& slice) {
        return serve_persist::EncodePairsBatch(serve_persist::WalOp::kAddPairs,
                                               slice);
      },
      [](RelationIndex& rel, const RelationPairs& slice) {
        return rel.AddPairsBulk(slice);
      }));
}

uint64_t ShardedRelation::RemovePairsBatch(const RelationPairs& pairs) {
  const uint32_t k = num_shards();
  std::vector<RelationPairs> sub(k);
  for (auto [o, a] : pairs) sub[shard_of_object(o)].push_back({o, a});
  return shard_internal::SumOf{}(WriteSlices(
      sub,
      [](const RelationPairs& slice) {
        return serve_persist::EncodePairsBatch(
            serve_persist::WalOp::kRemovePairs, slice);
      },
      [](RelationIndex& rel, const RelationPairs& slice) {
        uint64_t n = 0;
        for (auto [o, a] : slice) n += rel.RemovePair(o, a);
        return n;
      }));
}

}  // namespace dyndex

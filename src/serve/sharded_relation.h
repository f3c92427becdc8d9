// Sharded relation/graph serving: K independent EpochGuard<RelationIndex>
// shards behind one facade (serve/sharded_core.h) — the Theorem 2/3
// analogue of serve/sharded_index.h (K = 1 is the unsharded relation),
// partitioned the way RadixGraph and the dynamic succinct graph
// representations partition adjacency: by source vertex.
//
// Partitioning. A pair (object, label) — an edge u -> v — lives in shard
// shard_of_object(object), a stable hash of the *object* id. All labels of
// one object therefore share a shard: adjacency tests, LabelsOf/Neighbors
// and out-degree route to exactly one shard, while the label-keyed reverse
// queries (ObjectsOf/Reverse, in-degree) fan out across all K shards and
// merge.
//
// Writes split a batch per shard and apply the sub-batches in parallel,
// each under its shard's exclusive lock (one epoch bump per touched shard).
// The consistency model matches ShardedIndex: per-shard atomicity, with the
// per-shard epoch vector as the snapshot token of fanned-out reads.
#ifndef DYNDEX_SERVE_SHARDED_RELATION_H_
#define DYNDEX_SERVE_SHARDED_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "serve/relation_index.h"
#include "serve/sharded_core.h"

namespace dyndex {

class ShardedRelation : public ShardedCore<RelationIndex> {
 public:
  /// K shards, each built by `shard_factory` (K independent instances); the
  /// pool holds K-1 workers (the caller executes one slice itself).
  ShardedRelation(uint32_t num_shards,
                  const std::function<std::unique_ptr<RelationIndex>()>&
                      shard_factory);

  /// Convenience: K shards of MakeRelationIndex(backend, opt).
  ShardedRelation(uint32_t num_shards, RelationBackend backend,
                  const RelationIndexOptions& opt = {});

  /// Stable hash partition over object (source-vertex) ids.
  uint32_t shard_of_object(uint32_t object) const;

  // --- reader API (any thread) ---------------------------------------------

  /// Object-keyed queries touch one shard; `epoch` reports its epoch.
  bool Related(uint32_t object, uint32_t label,
               uint64_t* epoch = nullptr) const;
  std::vector<uint32_t> LabelsOf(uint32_t object,
                                 uint64_t* epoch = nullptr) const;
  uint64_t CountLabelsOf(uint32_t object, uint64_t* epoch = nullptr) const;

  /// Label-keyed queries fan out; `epochs` receives the per-shard epochs.
  /// ObjectsOf concatenates the shard answers in shard order.
  std::vector<uint32_t> ObjectsOf(uint32_t label,
                                  ShardEpochs* epochs = nullptr) const;
  uint64_t CountObjectsOf(uint32_t label, ShardEpochs* epochs = nullptr) const;
  uint64_t num_pairs(ShardEpochs* epochs = nullptr) const;

  // Graph view (Theorem 3): edge u -> v is the pair (u, v).
  bool HasEdge(uint32_t u, uint32_t v, uint64_t* epoch = nullptr) const {
    return Related(u, v, epoch);
  }
  std::vector<uint32_t> Neighbors(uint32_t u, uint64_t* epoch = nullptr) const {
    return LabelsOf(u, epoch);
  }
  std::vector<uint32_t> Reverse(uint32_t v, ShardEpochs* epochs = nullptr)
      const {
    return ObjectsOf(v, epochs);
  }
  uint64_t OutDegree(uint32_t u, uint64_t* epoch = nullptr) const {
    return CountLabelsOf(u, epoch);
  }
  uint64_t InDegree(uint32_t v, ShardEpochs* epochs = nullptr) const {
    return CountObjectsOf(v, epochs);
  }
  uint64_t num_edges(ShardEpochs* epochs = nullptr) const {
    return num_pairs(epochs);
  }

  // --- writer API (any number of concurrent callers) -----------------------

  /// Splits the batch by object shard and applies the sub-batches in
  /// parallel (bulk path per shard); returns how many pairs were new.
  uint64_t AddPairsBatch(const RelationPairs& pairs);
  /// Returns how many of `pairs` were present and removed.
  uint64_t RemovePairsBatch(const RelationPairs& pairs);
  uint64_t AddEdgesBatch(const RelationPairs& edges) {
    return AddPairsBatch(edges);
  }
  uint64_t RemoveEdgesBatch(const RelationPairs& edges) {
    return RemovePairsBatch(edges);
  }
};

}  // namespace dyndex

#endif  // DYNDEX_SERVE_SHARDED_RELATION_H_

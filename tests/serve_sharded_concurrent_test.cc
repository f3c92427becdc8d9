// Concurrent serving across three shards: the scenarios of
// serve_concurrent_test (documents) and serve_relation_concurrent_test
// (relations) at K = 3 (odd: uneven splits and id mapping), so fanned-out
// queries report one epoch per shard and each batch's per-shard sub-batches
// run in parallel on the scatter-join pool. Answers are checked per *epoch
// vector* against the per-shard expectations of
// tests/serve_concurrent_harness.h.
#include <gtest/gtest.h>

#include "tests/serve_concurrent_harness.h"

namespace dyndex {
namespace {

using serve_harness::RunDocScenario;
using serve_harness::RunRelationScenario;

constexpr uint32_t kShards = 3;

// ---------------------------------------------------------------------------
// Documents

TEST(ServeShardedConcurrent, ReadersDuringThreadedRebuilds) {
  RunDocScenario(kShards, Backend::kT2, RebuildMode::kThreaded, 42, 90);
}

TEST(ServeShardedConcurrent, ReadersDuringSynchronousRebuilds) {
  RunDocScenario(kShards, Backend::kT2, RebuildMode::kSynchronous, 43, 90);
}

TEST(ServeShardedConcurrent, ReadersOverTransformation1) {
  RunDocScenario(kShards, Backend::kT1, RebuildMode::kSynchronous, 44, 70);
}

TEST(ServeShardedConcurrent, ReadersOverBaseline) {
  RunDocScenario(kShards, Backend::kBaseline, RebuildMode::kSynchronous, 45,
                 70);
}

TEST(ServeShardedConcurrent, ThreadedRebuildsSecondSeed) {
  RunDocScenario(kShards, Backend::kT2, RebuildMode::kThreaded, 1337, 110);
}

// ---------------------------------------------------------------------------
// Relations

TEST(ServeShardedConcurrent, RelationReadersOverTheorem2) {
  RunRelationScenario(kShards, RelationBackend::kTheorem2, 71, 120);
}

TEST(ServeShardedConcurrent, RelationReadersOverBaseline) {
  RunRelationScenario(kShards, RelationBackend::kBaseline, 72, 90);
}

TEST(ServeShardedConcurrent, RelationReadersOverGraphView) {
  RunRelationScenario(kShards, RelationBackend::kGraph, 73, 120);
}

TEST(ServeShardedConcurrent, RelationReadersOverFastTier) {
  RunRelationScenario(kShards, RelationBackend::kFast, 74, 150);
}

TEST(ServeShardedConcurrent, RelationTheorem2SecondSeed) {
  RunRelationScenario(kShards, RelationBackend::kTheorem2, 1729, 150);
}

}  // namespace
}  // namespace dyndex

// Concurrent relation serving on the unsharded facade (a one-shard
// ShardedRelation): N reader threads hammer Related/LabelsOf/ObjectsOf,
// their counting twins and num_pairs while one writer applies
// AddPairsBatch/RemovePairsBatch batches. Each query's answer must equal the
// precomputed answer at exactly the epoch it reports, and every batch's
// applied count must match (tests/serve_concurrent_harness.h);
// serve_sharded_concurrent_test runs the same scenarios at K = 3.
#include <gtest/gtest.h>

#include "tests/serve_concurrent_harness.h"

namespace dyndex {
namespace {

using serve_harness::RunRelationScenario;

constexpr uint32_t kOneShard = 1;

TEST(ServeRelationConcurrent, ReadersOverTheorem2) {
  RunRelationScenario(kOneShard, RelationBackend::kTheorem2, 71, 120);
}

TEST(ServeRelationConcurrent, ReadersOverBaseline) {
  RunRelationScenario(kOneShard, RelationBackend::kBaseline, 72, 90);
}

TEST(ServeRelationConcurrent, ReadersOverGraphView) {
  RunRelationScenario(kOneShard, RelationBackend::kGraph, 73, 120);
}

// The speed tier republishes adjacency-set reps and directory tables far
// more often than the succinct backends publish anything, so this leans on
// the single-pointer/retire discipline hardest (optimistic readers race the
// pointer churn; TSan runs this under lock-assisted validation).
TEST(ServeRelationConcurrent, ReadersOverFastTier) {
  RunRelationScenario(kOneShard, RelationBackend::kFast, 74, 150);
}

// A second Theorem 2 run with a different seed: more remove pressure crossing
// purge/rebuild boundaries under live readers.
TEST(ServeRelationConcurrent, Theorem2SecondSeed) {
  RunRelationScenario(kOneShard, RelationBackend::kTheorem2, 1729, 150);
}

}  // namespace
}  // namespace dyndex

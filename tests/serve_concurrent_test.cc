// Concurrent document serving on the unsharded facade (a one-shard
// ShardedIndex): N reader threads hammer Count/Locate/Extract while one
// writer applies insert/erase batches and Transformation 2 rebuilds levels
// on real builder threads. Each query's answer must equal the precomputed
// answer at exactly the epoch it reports (tests/serve_concurrent_harness.h);
// serve_sharded_concurrent_test runs the same scenarios at K = 3.
#include <gtest/gtest.h>

#include "tests/serve_concurrent_harness.h"

namespace dyndex {
namespace {

using serve_harness::RunDocScenario;

constexpr uint32_t kOneShard = 1;

// The headline scenario: readers against Transformation 2 with real builder
// threads, so queries overlap lock/build/swap/replay at every stage.
TEST(ServeConcurrent, ReadersDuringThreadedRebuilds) {
  RunDocScenario(kOneShard, Backend::kT2, RebuildMode::kThreaded, 42, 90);
}

TEST(ServeConcurrent, ReadersDuringSynchronousRebuilds) {
  RunDocScenario(kOneShard, Backend::kT2, RebuildMode::kSynchronous, 43, 90);
}

TEST(ServeConcurrent, ReadersOverTransformation1) {
  RunDocScenario(kOneShard, Backend::kT1, RebuildMode::kSynchronous, 44, 70);
}

TEST(ServeConcurrent, ReadersOverBaseline) {
  RunDocScenario(kOneShard, Backend::kBaseline, RebuildMode::kSynchronous, 45,
                 70);
}

// A second threaded-T2 run with a different seed: more erase pressure on the
// deletion-replay path (deletions racing in-flight builds).
TEST(ServeConcurrent, ThreadedRebuildsSecondSeed) {
  RunDocScenario(kOneShard, Backend::kT2, RebuildMode::kThreaded, 1337, 110);
}

}  // namespace
}  // namespace dyndex

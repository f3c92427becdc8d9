// Shared harness for the concurrent serving tests: N reader threads hammer
// fanned-out and single-shard queries on a ShardedIndex / ShardedRelation
// while one writer applies batches whose per-shard sub-batches run in
// parallel on the scatter-join pool -- and Transformation 2 rebuilds levels
// on real builder threads. The shard count is a parameter: K = 1 is the
// unsharded facade (one core, no pool workers, direct-call reads;
// serve_concurrent_test for documents, serve_relation_concurrent_test for
// relations) and serve_sharded_concurrent_test runs the same scenarios at
// K = 3 (odd: uneven splits and id mapping).
//
// Linearizability is checked per *epoch vector*: the whole write schedule is
// generated up front and split per shard exactly the way the sharded facade
// splits it, so shard s's state after its e-th touched batch is known before
// any thread starts. A fanned-out query reports one epoch per shard; its
// answer must equal the sum/merge of the per-shard expectations at exactly
// those epochs. Single-shard queries are checked against the owning shard's
// scalar epoch. Failures collect into a mutex-guarded list (gtest assertions
// stay on the main thread).
#ifndef DYNDEX_TESTS_SERVE_CONCURRENT_HARNESS_H_
#define DYNDEX_TESTS_SERVE_CONCURRENT_HARNESS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/text_gen.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "tests/model_checker.h"
#include "util/rng.h"

namespace dyndex {
namespace serve_harness {

inline constexpr int kReaders = 4;
inline constexpr uint32_t kSigma = 4;
inline constexpr uint32_t kNumImmortal = 6;
inline constexpr uint32_t kNumPatterns = 6;

class FailureLog {
 public:
  void Add(std::string msg) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(std::move(msg));
  }
  std::vector<std::string> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Documents

struct Batch {
  bool is_insert = false;
  std::vector<uint32_t> docs;  // insert: indices into Script::contents
  std::vector<DocId> erases;   // erase: predicted global ids
};

struct Script {
  std::vector<std::vector<Symbol>> contents;  // global id -> symbols (dense
                                              // sequential minting)
  std::vector<Batch> batches;
  std::vector<std::vector<Symbol>> patterns;
  // expected[s][e][p]: sorted global-id occurrences of patterns[p] within
  // shard s at shard-epoch e (a shard's epoch moves only when a batch
  // touches it).
  std::vector<std::vector<std::vector<std::vector<Occurrence>>>> expected;
  // Shard-epoch at which each immortal doc (global ids 0..kNumImmortal-1)
  // becomes visible in its shard.
  std::vector<uint64_t> immortal_epoch;
};

inline Script MakeScript(uint32_t num_shards, uint64_t seed, int num_batches) {
  Script s;
  Rng rng(seed);
  auto gen_doc = [&](uint64_t max_len) {
    s.contents.push_back(UniformText(rng, rng.Range(1, max_len), kSigma));
    return static_cast<uint32_t>(s.contents.size() - 1);
  };
  Batch first;
  first.is_insert = true;
  for (uint32_t i = 0; i < kNumImmortal; ++i) first.docs.push_back(gen_doc(50));
  s.batches.push_back(std::move(first));
  std::vector<DocId> mortal_live;
  for (int b = 1; b < num_batches; ++b) {
    Batch batch;
    if (b % 2 == 1 || mortal_live.size() < 2) {
      batch.is_insert = true;
      uint32_t k = static_cast<uint32_t>(rng.Range(1, 4));
      for (uint32_t i = 0; i < k; ++i) {
        // Mostly small docs; occasionally one big enough to push a level
        // overflow and with it a background build + swap.
        batch.docs.push_back(gen_doc(rng.Below(8) == 0 ? 220 : 60));
        mortal_live.push_back(batch.docs.back());
      }
    } else {
      uint32_t k = static_cast<uint32_t>(rng.Range(1, 2));
      for (uint32_t i = 0; i < k && !mortal_live.empty(); ++i) {
        uint64_t pick = rng.Below(mortal_live.size());
        batch.erases.push_back(mortal_live[pick]);
        mortal_live.erase(mortal_live.begin() + static_cast<int64_t>(pick));
      }
    }
    s.batches.push_back(std::move(batch));
  }
  for (uint32_t p = 0; p < kNumPatterns; ++p) {
    s.patterns.push_back(
        SamplePattern(rng, s.contents, rng.Range(1, 4), kSigma));
  }
  // Replay the schedule split per shard, exactly as ShardedIndex splits it:
  // doc j (global insertion order) -> shard j % K; erase of global id g ->
  // shard g % K; a shard's epoch moves only on touched batches.
  std::vector<ReferenceModel> models(num_shards);
  s.expected.resize(num_shards);
  s.immortal_epoch.assign(kNumImmortal, 0);
  auto snapshot = [&](uint32_t shard) {
    std::vector<std::vector<Occurrence>> at_epoch(kNumPatterns);
    for (uint32_t p = 0; p < kNumPatterns; ++p) {
      at_epoch[p] = models[shard].Find(s.patterns[p]);
    }
    s.expected[shard].push_back(std::move(at_epoch));
  };
  for (uint32_t shard = 0; shard < num_shards; ++shard) snapshot(shard);
  DocId next_id = 0;
  for (const Batch& batch : s.batches) {
    std::vector<bool> touched(num_shards, false);
    for (uint32_t doc : batch.docs) {
      uint32_t shard = static_cast<uint32_t>(next_id % num_shards);
      models[shard].Insert(next_id, s.contents[doc]);
      if (next_id < kNumImmortal) {
        s.immortal_epoch[next_id] = s.expected[shard].size();  // next epoch
      }
      ++next_id;
      touched[shard] = true;
    }
    for (DocId id : batch.erases) {
      uint32_t shard = static_cast<uint32_t>(id % num_shards);
      models[shard].Erase(id);
      touched[shard] = true;
    }
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      if (touched[shard]) snapshot(shard);
    }
  }
  return s;
}

inline void DocReaderLoop(const ShardedIndex& index, const Script& script,
                          uint64_t seed, const std::atomic<bool>& done,
                          FailureLog* failures, uint64_t* queries_run) {
  const uint32_t k = index.num_shards();
  Rng rng(seed);
  uint64_t n = 0;
  while (!done.load(std::memory_order_acquire)) {
    uint32_t p = static_cast<uint32_t>(rng.Below(kNumPatterns));
    switch (rng.Below(3)) {
      case 0: {
        ShardEpochs eps;
        auto got = index.Locate(script.patterns[p], &eps);
        std::sort(got.begin(), got.end());
        std::vector<Occurrence> want;
        for (uint32_t shard = 0; shard < k; ++shard) {
          const auto& at = script.expected[shard][eps[shard]][p];
          want.insert(want.end(), at.begin(), at.end());
        }
        std::sort(want.begin(), want.end());
        if (got != want) {
          failures->Add("Locate mismatch: pattern " + std::to_string(p) +
                        ": got " + std::to_string(got.size()) + " occs, want " +
                        std::to_string(want.size()));
        }
        break;
      }
      case 1: {
        ShardEpochs eps;
        uint64_t got = index.Count(script.patterns[p], &eps);
        uint64_t want = 0;
        for (uint32_t shard = 0; shard < k; ++shard) {
          want += script.expected[shard][eps[shard]][p].size();
        }
        if (got != want) {
          failures->Add("Count mismatch: pattern " + std::to_string(p) +
                        ": got " + std::to_string(got) + ", want " +
                        std::to_string(want));
        }
        break;
      }
      default: {
        DocId id = rng.Below(kNumImmortal);
        const auto& want = script.contents[id];
        std::vector<Symbol> got;
        uint64_t epoch = 0;
        bool present = index.Extract(id, 0, want.size(), &got, &epoch);
        if (epoch >= script.immortal_epoch[id]) {
          if (!present) {
            failures->Add("Extract: immortal doc " + std::to_string(id) +
                          " absent at shard epoch " + std::to_string(epoch));
          } else if (got != want) {
            failures->Add("Extract mismatch: doc " + std::to_string(id));
          }
        }
        break;
      }
    }
    ++n;
  }
  *queries_run = n;
}

inline void RunDocScenario(uint32_t num_shards, Backend backend,
                           RebuildMode mode, uint64_t seed, int num_batches) {
  Script script = MakeScript(num_shards, seed, num_batches);
  DynamicIndexOptions opt;
  opt.min_c0 = 64;  // frequent level overflows -> many background builds
  opt.tau = 4;
  opt.mode = mode;
  ShardedIndex index(num_shards, backend, opt);
  FailureLog failures;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<uint64_t> query_counts(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(DocReaderLoop, std::cref(index), std::cref(script),
                         seed * 1000 + r, std::cref(done), &failures,
                         &query_counts[r]);
  }
  // Writer: apply the script, checking the predicted ids; yield a little so
  // readers overlap with many distinct epochs and in-flight rebuilds.
  DocId next_id = 0;
  for (const Batch& batch : script.batches) {
    if (batch.is_insert) {
      std::vector<std::vector<Symbol>> docs;
      for (uint32_t doc : batch.docs) docs.push_back(script.contents[doc]);
      std::vector<DocId> ids = index.InsertBatch(std::move(docs));
      for (uint64_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != next_id + i) {
          failures.Add("unexpected id " + std::to_string(ids[i]) + " want " +
                       std::to_string(next_id + i));
        }
      }
      next_id += ids.size();
    } else {
      uint64_t erased = index.EraseBatch(batch.erases);
      if (erased != batch.erases.size()) {
        failures.Add("EraseBatch erased " + std::to_string(erased) + " of " +
                     std::to_string(batch.erases.size()));
      }
    }
    index.Poll();  // publish finished rebuilds between batches
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures.Take()) ADD_FAILURE() << f;
  uint64_t total_queries = 0;
  for (uint64_t c : query_counts) total_queries += c;
  EXPECT_GT(total_queries, 0u);
  // Quiesce; the final per-shard epochs must match the touched-batch counts
  // and the final answers the full merged expectation.
  index.Flush();
  ShardEpochs final_epochs = index.epochs();
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    ASSERT_EQ(final_epochs[shard] + 1, script.expected[shard].size())
        << "shard " << shard;
  }
  for (uint32_t p = 0; p < kNumPatterns; ++p) {
    auto got = index.Locate(script.patterns[p]);
    std::sort(got.begin(), got.end());
    std::vector<Occurrence> want;
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      const auto& at = script.expected[shard].back()[p];
      want.insert(want.end(), at.begin(), at.end());
    }
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "pattern " << p;
  }
  index.CheckInvariants();
}

// ---------------------------------------------------------------------------
// Relations

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

inline constexpr uint32_t kObjects = 48;
inline constexpr uint32_t kLabels = 40;

struct RelBatch {
  bool is_add = false;
  RelationPairs pairs;
  uint64_t expected_applied = 0;  // #new on add, #removed on remove
};

struct RelScript {
  std::vector<RelBatch> batches;
  std::vector<std::pair<uint32_t, uint32_t>> probe_pairs;
  std::vector<uint32_t> probe_objects;
  std::vector<uint32_t> probe_labels;
  // snapshots[s][e]: shard s's pair set at shard-epoch e.
  std::vector<std::vector<PairSet>> snapshots;
};

inline RelScript MakeRelScript(const ShardedRelation& rel, uint64_t seed,
                               int num_batches) {
  const uint32_t k = rel.num_shards();
  RelScript s;
  Rng rng(seed);
  for (int i = 0; i < 10; ++i) {
    s.probe_pairs.push_back({static_cast<uint32_t>(rng.Below(kObjects)),
                             static_cast<uint32_t>(rng.Below(kLabels))});
    s.probe_objects.push_back(static_cast<uint32_t>(rng.Below(kObjects)));
    s.probe_labels.push_back(static_cast<uint32_t>(rng.Below(kLabels)));
  }
  std::vector<PairSet> models(k);
  PairSet all;
  s.snapshots.assign(k, {PairSet{}});  // epoch 0: empty
  for (int b = 0; b < num_batches; ++b) {
    RelBatch batch;
    std::vector<bool> touched(k, false);
    auto add = [&](uint32_t o, uint32_t a) {
      batch.pairs.push_back({o, a});
      const uint32_t shard = rel.shard_of_object(o);
      touched[shard] = true;
      batch.expected_applied += all.insert({o, a}).second ? 1 : 0;
      models[shard].insert({o, a});
    };
    auto remove = [&](uint32_t o, uint32_t a) {
      batch.pairs.push_back({o, a});
      const uint32_t shard = rel.shard_of_object(o);
      touched[shard] = true;
      batch.expected_applied += all.erase({o, a});
      models[shard].erase({o, a});
    };
    // Batch 0 is a large cold-start add (the bulk promotion path); later
    // batches alternate adds and removes with overlap against live pairs.
    batch.is_add = b == 0 || b % 3 != 0;
    if (batch.is_add) {
      uint64_t n = b == 0 ? 300 : rng.Below(30) + 1;
      for (uint64_t i = 0; i < n; ++i) {
        add(static_cast<uint32_t>(rng.Below(kObjects)),
            static_cast<uint32_t>(rng.Below(kLabels)));
      }
    } else {
      uint64_t n = rng.Below(20) + 1;
      for (uint64_t i = 0; i < n && !all.empty(); ++i) {
        if (rng.Below(4) == 0) {  // occasionally a miss
          remove(static_cast<uint32_t>(rng.Below(kObjects)),
                 static_cast<uint32_t>(rng.Below(kLabels)));
        } else {
          auto it = all.begin();
          std::advance(it, static_cast<int64_t>(rng.Below(all.size())));
          const auto [o, a] = *it;
          remove(o, a);
        }
      }
    }
    for (uint32_t shard = 0; shard < k; ++shard) {
      if (touched[shard]) s.snapshots[shard].push_back(models[shard]);
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

inline std::vector<uint32_t> LabelsIn(const PairSet& pairs, uint32_t object) {
  std::vector<uint32_t> out;
  for (const auto& [o, a] : pairs) {
    if (o == object) out.push_back(a);
  }
  return out;
}

/// Sorted objects related to `label` across the shard snapshots at `eps`.
inline std::vector<uint32_t> ObjectsIn(const RelScript& script,
                                       const ShardEpochs& eps, uint32_t label) {
  std::vector<uint32_t> out;
  for (uint32_t shard = 0; shard < eps.size(); ++shard) {
    for (const auto& [o, a] : script.snapshots[shard][eps[shard]]) {
      if (a == label) out.push_back(o);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline void RelReaderLoop(const ShardedRelation& rel, const RelScript& script,
                          uint64_t seed, const std::atomic<bool>& done,
                          FailureLog* failures, uint64_t* queries_run) {
  Rng rng(seed);
  uint64_t n = 0;
  while (!done.load(std::memory_order_acquire)) {
    uint32_t p = static_cast<uint32_t>(rng.Below(script.probe_pairs.size()));
    switch (rng.Below(4)) {
      case 0: {
        // Object-keyed: one shard, scalar epoch.
        const auto [o, a] = script.probe_pairs[p];
        const uint32_t shard = rel.shard_of_object(o);
        uint64_t epoch = 0;
        bool got = rel.Related(o, a, &epoch);
        if (got != (script.snapshots[shard][epoch].count({o, a}) > 0)) {
          failures->Add("Related mismatch: probe " + std::to_string(p) +
                        " at shard epoch " + std::to_string(epoch));
        }
        break;
      }
      case 1: {
        const uint32_t o = script.probe_objects[p];
        const uint32_t shard = rel.shard_of_object(o);
        uint64_t epoch = 0;
        std::vector<uint32_t> got = rel.LabelsOf(o, &epoch);
        std::sort(got.begin(), got.end());
        const std::vector<uint32_t> want =
            LabelsIn(script.snapshots[shard][epoch], o);
        if (got != want) {
          failures->Add("LabelsOf mismatch: object " + std::to_string(o) +
                        " at shard epoch " + std::to_string(epoch) + ": got " +
                        std::to_string(got.size()) + " labels, want " +
                        std::to_string(want.size()));
        }
        uint64_t count = rel.CountLabelsOf(o, &epoch);
        if (count != LabelsIn(script.snapshots[shard][epoch], o).size()) {
          failures->Add("CountLabelsOf mismatch at shard epoch " +
                        std::to_string(epoch));
        }
        break;
      }
      case 2: {
        // Label-keyed: fan-out, epoch vector.
        const uint32_t a = script.probe_labels[p];
        ShardEpochs eps;
        std::vector<uint32_t> got = rel.ObjectsOf(a, &eps);
        std::sort(got.begin(), got.end());
        if (got != ObjectsIn(script, eps, a)) {
          failures->Add("ObjectsOf mismatch: label " + std::to_string(a));
        }
        uint64_t count = rel.CountObjectsOf(a, &eps);
        if (count != ObjectsIn(script, eps, a).size()) {
          failures->Add("CountObjectsOf mismatch: label " + std::to_string(a) +
                        ": got " + std::to_string(count));
        }
        break;
      }
      default: {
        ShardEpochs eps;
        uint64_t got = rel.num_pairs(&eps);
        uint64_t want = 0;
        for (uint32_t shard = 0; shard < eps.size(); ++shard) {
          want += script.snapshots[shard][eps[shard]].size();
        }
        if (got != want) {
          failures->Add("num_pairs mismatch: got " + std::to_string(got) +
                        ", want " + std::to_string(want));
        }
        break;
      }
    }
    ++n;
  }
  *queries_run = n;
}

inline void RunRelationScenario(uint32_t num_shards, RelationBackend backend,
                                uint64_t seed, int num_batches) {
  RelationIndexOptions opt;
  opt.min_c0 = 32;  // frequent merges/purges while readers are live
  opt.tau = 3;
  opt.baseline_max_objects = kObjects;
  opt.baseline_max_labels = kLabels;
  ShardedRelation rel(num_shards, backend, opt);
  RelScript script = MakeRelScript(rel, seed, num_batches);
  FailureLog failures;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<uint64_t> query_counts(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(RelReaderLoop, std::cref(rel), std::cref(script),
                         seed * 1000 + r, std::cref(done), &failures,
                         &query_counts[r]);
  }
  // Writer: apply the script, checking the predicted counts.
  for (const RelBatch& batch : script.batches) {
    uint64_t applied = batch.is_add ? rel.AddPairsBatch(batch.pairs)
                                    : rel.RemovePairsBatch(batch.pairs);
    if (applied != batch.expected_applied) {
      failures.Add(std::string(batch.is_add ? "Add" : "Remove") +
                   "PairsBatch applied " + std::to_string(applied) +
                   ", want " + std::to_string(batch.expected_applied));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  for (const std::string& f : failures.Take()) ADD_FAILURE() << f;
  uint64_t total_queries = 0;
  for (uint64_t c : query_counts) total_queries += c;
  EXPECT_GT(total_queries, 0u);
  // Quiesced final state == merged final snapshots.
  ShardEpochs final_epochs = rel.epochs();
  uint64_t want_pairs = 0;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    ASSERT_EQ(final_epochs[shard] + 1, script.snapshots[shard].size())
        << "shard " << shard;
    want_pairs += script.snapshots[shard].back().size();
  }
  EXPECT_EQ(rel.num_pairs(), want_pairs);
  for (uint32_t o : script.probe_objects) {
    std::vector<uint32_t> got = rel.LabelsOf(o);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, LabelsIn(script.snapshots[rel.shard_of_object(o)].back(), o))
        << "probe object " << o;
  }
  rel.CheckInvariants();
}

}  // namespace serve_harness
}  // namespace dyndex

#endif  // DYNDEX_TESTS_SERVE_CONCURRENT_HARNESS_H_

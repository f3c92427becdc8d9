// Checks that TimedEnv is transparent: the same durable write sequence run
// once through TimedEnv(GetPosixEnv()) and once through GetPosixEnv() leaves
// byte-identical directories, and the directory written through TimedEnv
// recovers (through TimedEnv) to the state that was written, with the
// counters seeing the syncs and reads recovery needs.
//
// Usage: timed_env_check <scratch dir>   (the directory is recreated)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "gen/text_gen.h"
#include "persist/env.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "timed_env.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace dyndex;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++failures;
}

void ExpectOk(const persist::Status& st, const std::string& what) {
  Expect(st.ok(), what + ": " + st.ToString());
}

DynamicIndexOptions T2Sync() {
  DynamicIndexOptions opt;
  opt.mode = RebuildMode::kSynchronous;
  return opt;
}

/// One fixed durable history per facade: open, bulk load, churn across a
/// checkpoint, close.
void WriteHistory(persist::Env* env, const std::string& dir) {
  fs::create_directories(dir);
  Rng rng(7);
  ShardedIndex index(2, Backend::kT2, T2Sync());
  ExpectOk(index.OpenDurable(env, dir + "/docs"), "open docs");
  std::vector<std::vector<Symbol>> docs;
  for (int i = 0; i < 64; ++i) docs.push_back(MarkovText(rng, 200, 16));
  std::vector<DocId> ids = index.InsertBatch(docs);
  ExpectOk(index.Checkpoint(), "checkpoint docs");
  for (int b = 0; b < 8; ++b) {
    index.InsertBatch({MarkovText(rng, 100, 16), MarkovText(rng, 80, 16)});
    index.EraseBatch({ids[static_cast<size_t>(b)]});
  }
  ExpectOk(index.CloseDurable(), "close docs");

  ShardedRelation rel(2, RelationBackend::kTheorem2);
  ExpectOk(rel.OpenDurable(env, dir + "/pairs"), "open pairs");
  RelationPairs pairs;
  for (uint32_t i = 0; i < 500; ++i) pairs.push_back({i % 61, i % 37});
  rel.AddPairsBatch(pairs);
  ExpectOk(rel.Checkpoint(), "checkpoint pairs");
  rel.RemovePairsBatch({pairs[0], pairs[1]});
  rel.AddPairsBatch({{1000, 1}, {1001, 2}});
  ExpectOk(rel.CloseDurable(), "close pairs");
}

std::map<std::string, std::string> ReadTree(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    files[fs::relative(e.path(), root).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <scratch dir>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  fs::remove_all(root);
  fs::create_directories(root);

  e2e::TimedEnv timed(persist::GetPosixEnv());
  WriteHistory(&timed, root + "/timed");
  WriteHistory(persist::GetPosixEnv(), root + "/posix");
  const e2e::EnvCounters written = timed.counters();
  Expect(written.syncs > 0 && written.append_bytes > 0 && written.renames > 0,
         "TimedEnv counted the writes");

  auto a = ReadTree(root + "/timed");
  auto b = ReadTree(root + "/posix");
  Expect(!a.empty(), "history wrote files");
  Expect(a.size() == b.size(), "same file set");
  for (const auto& [name, bytes] : a) {
    auto it = b.find(name);
    Expect(it != b.end() && it->second == bytes, "identical bytes: " + name);
  }

  ShardedIndex index(2, Backend::kT2, T2Sync());
  RecoveryStats stats;
  ExpectOk(index.OpenDurable(&timed, root + "/timed/docs", {}, &stats),
           "reopen docs");
  // Each of the 8 churn rounds logs one insert frame on both shards and one
  // erase frame on the erased document's shard.
  Expect(stats.snapshot_loaded && stats.replayed_batches == 24,
         "docs: snapshot + 24 replayed frames, got " +
             std::to_string(stats.replayed_batches));
  Expect(index.num_docs() == 64 + 16 - 8, "docs: recovered document count");
  ShardedRelation rel(2, RelationBackend::kTheorem2);
  ExpectOk(rel.OpenDurable(&timed, root + "/timed/pairs"), "reopen pairs");
  // 500 distinct pairs (i % 61, i % 37), two removed, two added.
  Expect(rel.num_pairs() == 500 && rel.HasEdge(1000, 1) && !rel.HasEdge(0, 0),
         "pairs: recovered relation");
  const e2e::EnvCounters read = timed.counters() - written;
  Expect(read.reads > 0 && read.read_bytes > 0, "TimedEnv counted the reads");

  if (failures == 0) std::printf("timed_env_check: OK (%zu files)\n", a.size());
  return failures == 0 ? 0 : 1;
}

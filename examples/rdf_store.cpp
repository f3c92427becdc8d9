// RDF triple store served concurrently over dynamic binary relations
// (Section 5 / Theorem 2, on the serve-layer relation facade).
//
// The paper: "the set of subject-predicate-object RDF triples can be
// represented as a graph or as two binary relations... given x, enumerate all
// the triples in which x occurs as a subject; given x and p, enumerate all
// triples in which x occurs as a subject and p occurs as a predicate."
//
// We store one relation facade per triple dimension:
//   subjects  : subject  -> triple-id
//   predicates: predicate-> triple-id
//   objects   : object   -> triple-id
// and answer both query shapes with relation primitives. Each relation is a
// one-shard ShardedRelation (K = 1, the unsharded facade) over the Theorem 2
// backend, so any number of reader threads could run these queries while a
// writer retracts and asserts triples in batches; the epoch reported by each
// query identifies the snapshot it saw. Bulk assertion rides AddPairsBatch,
// which routes cold-start batches into one compressed sub-collection build.
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/relation_index.h"
#include "serve/sharded_relation.h"

using namespace dyndex;

namespace {

struct Triple {
  uint32_t subject, predicate, object;
};

class TripleStore {
 public:
  TripleStore()
      : by_subject_(1, RelationBackend::kTheorem2),
        by_predicate_(1, RelationBackend::kTheorem2),
        by_object_(1, RelationBackend::kTheorem2) {}

  /// Asserts a batch of triples atomically per dimension; returns the ids.
  std::vector<uint32_t> AddBatch(const std::vector<Triple>& triples) {
    std::vector<uint32_t> ids;
    RelationPairs s, p, o;
    for (const Triple& t : triples) {
      uint32_t id = next_id_++;
      ids.push_back(id);
      triples_[id] = t;
      s.push_back({t.subject, id});
      p.push_back({t.predicate, id});
      o.push_back({t.object, id});
    }
    by_subject_.AddPairsBatch(s);
    by_predicate_.AddPairsBatch(p);
    by_object_.AddPairsBatch(o);
    return ids;
  }

  void Remove(uint32_t id) {
    const Triple& t = triples_.at(id);
    by_subject_.RemovePairsBatch({{t.subject, id}});
    by_predicate_.RemovePairsBatch({{t.predicate, id}});
    by_object_.RemovePairsBatch({{t.object, id}});
    triples_.erase(id);
  }

  /// All triples with subject s (readable from any thread).
  std::vector<Triple> BySubject(uint32_t s) const {
    std::vector<Triple> out;
    for (uint32_t id : by_subject_.LabelsOf(s)) {
      out.push_back(triples_.at(id));
    }
    return out;
  }

  /// All triples with subject s AND predicate p (intersection of the two
  /// relations, iterating the smaller side and probing the other).
  std::vector<Triple> BySubjectPredicate(uint32_t s, uint32_t p) const {
    std::vector<Triple> out;
    if (by_subject_.CountLabelsOf(s) <= by_predicate_.CountLabelsOf(p)) {
      for (uint32_t id : by_subject_.LabelsOf(s)) {
        if (by_predicate_.Related(p, id)) out.push_back(triples_.at(id));
      }
    } else {
      for (uint32_t id : by_predicate_.LabelsOf(p)) {
        if (by_subject_.Related(s, id)) out.push_back(triples_.at(id));
      }
    }
    return out;
  }

  uint64_t CountBySubject(uint32_t s) const {
    return by_subject_.CountLabelsOf(s);
  }

  /// Write batches applied to the subject dimension so far.
  uint64_t epoch() const { return by_subject_.epochs()[0]; }

  uint64_t size() const { return triples_.size(); }

 private:
  ShardedRelation by_subject_, by_predicate_, by_object_;
  std::unordered_map<uint32_t, Triple> triples_;
  uint32_t next_id_ = 0;
};

// Tiny vocabulary for a readable demo.
const char* kEntities[] = {"alice", "bob", "carol", "paperX", "paperY",
                           "waterloo", "kansas"};
const char* kPredicates[] = {"knows", "authored", "cites", "affiliatedWith"};

}  // namespace

int main() {
  TripleStore store;
  // (subject, predicate, object) indices into the vocab arrays, asserted as
  // one batch per dimension (one epoch).
  std::vector<uint32_t> ids = store.AddBatch({
      {0, 0, 1},  // alice knows bob
      {0, 1, 3},  // alice authored paperX
      {1, 1, 4},  // bob authored paperY
      {3, 2, 4},  // paperX cites paperY
      {0, 3, 5},  // alice affiliatedWith waterloo
      {1, 3, 6},  // bob affiliatedWith kansas
      {0, 0, 2},  // alice knows carol
  });

  std::printf("store holds %llu triples at epoch %llu\n",
              static_cast<unsigned long long>(store.size()),
              static_cast<unsigned long long>(store.epoch()));

  std::printf("triples with subject 'alice' (%llu):\n",
              static_cast<unsigned long long>(store.CountBySubject(0)));
  for (const Triple& t : store.BySubject(0)) {
    std::printf("  alice %s %s\n", kPredicates[t.predicate],
                kEntities[t.object]);
  }

  std::printf("alice + knows:\n");
  for (const Triple& t : store.BySubjectPredicate(0, 0)) {
    std::printf("  alice knows %s\n", kEntities[t.object]);
  }

  store.Remove(ids[0]);  // retract "alice knows bob"
  std::printf("after retraction (epoch %llu), alice + knows:\n",
              static_cast<unsigned long long>(store.epoch()));
  for (const Triple& t : store.BySubjectPredicate(0, 0)) {
    std::printf("  alice knows %s\n", kEntities[t.object]);
  }
  return 0;
}

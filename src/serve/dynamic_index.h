// The serving facade: one polymorphic interface over every fully-dynamic
// collection in the repo, so servers, tests and benchmarks can swap backends
// without recompiling against a different template.
//
// Three families implement it (via one duck-typed adapter):
//  * DynamicCollectionT1/T3<FmIndex>  -- Transformations 1 and 3 (amortized)
//  * DynamicCollectionT2<FmIndex>     -- Transformation 2 (worst-case, with
//                                        optional threaded background builds)
//  * DynamicFmIndex                   -- the dynamic-rank baseline the paper
//                                        is designed to beat
//
// All query methods are const: the adapter stores the collection by value and
// calls through from const members, so any mutation hiding in a backend's
// query path fails to compile here. This is the single-threaded facade;
// serve/sharded_index.h adds the reader/writer discipline on top.
#ifndef DYNDEX_SERVE_DYNAMIC_INDEX_H_
#define DYNDEX_SERVE_DYNAMIC_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/dynamic_fm_index.h"
#include "core/dynamic_collection.h"
#include "core/occurrence.h"
#include "core/transformation2.h"
#include "text/concat_text.h"

namespace dyndex {

/// Exclusive upper bound on symbols a query pattern or stored document may
/// contain. Values at or above this are reserved for internal terminators
/// (the C0 suffix tree hands out kTermBase + slot), so a hostile pattern
/// containing one could otherwise match document boundaries.
inline constexpr Symbol kMaxPatternSymbol = 1u << 31;
static_assert(kMaxPatternSymbol == SuffixTreeCollection::kTermBase,
              "facade symbol screening must match the C0 terminator base");

/// True iff every symbol is a representable user symbol. Patterns failing
/// this (and empty patterns) match nothing by facade contract — they never
/// reach a backend, whose preconditions stay strict.
inline bool IsQueryablePattern(const std::vector<Symbol>& pattern) {
  if (pattern.empty()) return false;
  for (Symbol s : pattern) {
    if (s < kMinSymbol || s >= kMaxPatternSymbol) return false;
  }
  return true;
}

/// Polymorphic fully-dynamic document-collection index.
///
/// Degenerate inputs have uniform, total semantics at this facade for every
/// backend (the backends themselves keep strict DYNDEX_CHECK preconditions):
///  * Count/Locate of an empty or non-representable pattern: 0 / no matches.
///  * Extract/DocLenOf of an unknown id: empty / 0 (no abort).
///  * Extract beyond the end of a document: clamped to the stored suffix.
///  * Insert/InsertBulk of an empty document, or of one containing a
///    reserved symbol or a symbol beyond the backend's alphabet capacity:
///    rejected with kInvalidDocId.
/// (Resource exhaustion — e.g. the baseline's max_docs separator pool — is a
/// capacity limit, not input screening, and stays a strict precondition.)
class DynamicIndex {
 public:
  virtual ~DynamicIndex() = default;

  // Mutations (writer thread only; see sharded_index.h).
  virtual DocId Insert(std::vector<Symbol> symbols) = 0;
  virtual bool Erase(DocId id) = 0;

  /// Inserts a batch of documents. Backends with a cold-start bulk path
  /// build once instead of inserting document by document: the baseline
  /// dynamic FM-index via one SA-IS pass instead of per-symbol dynamic-rank
  /// insertion, Transformation 2 via one static build (RebaseInto) instead
  /// of its level cascade. The default loops over Insert.
  virtual std::vector<DocId> InsertBulk(std::vector<std::vector<Symbol>> docs) {
    std::vector<DocId> ids;
    ids.reserve(docs.size());
    for (auto& doc : docs) ids.push_back(Insert(std::move(doc)));
    return ids;
  }

  // Queries (const end to end).
  virtual uint64_t Count(const std::vector<Symbol>& pattern) const = 0;
  virtual std::vector<Occurrence> Locate(
      const std::vector<Symbol>& pattern) const = 0;
  virtual std::vector<Symbol> Extract(DocId id, uint64_t from,
                                      uint64_t len) const = 0;
  virtual bool Contains(DocId id) const = 0;
  virtual uint64_t DocLenOf(DocId id) const = 0;
  virtual uint64_t num_docs() const = 0;
  virtual uint64_t live_symbols() const = 0;

  /// Publishes finished background builds without blocking (no-op for
  /// backends without background work). Writer thread only.
  virtual void PollPending() {}
  /// Blocks until every background build has been published (deterministic
  /// barrier for tests/benchmarks). Writer thread only.
  virtual void ForceAllPending() {}
  /// Structural self-check (no-op where the backend offers none).
  virtual void CheckInvariants() const {}

  // Persistence (writer thread only; see serve/persistence.h for the durable
  // wrappers). ExportSnapshot copies the full logical state — every live
  // document plus the next id to mint; non-const because backends with
  // background builds publish them first (the logical state is unchanged).
  // LoadSnapshot restores an exported state into a *fresh* index, preserving
  // the exported ids and the id counter.
  virtual void ExportSnapshot(std::vector<Document>* docs, DocId* next_id) = 0;
  virtual void LoadSnapshot(std::vector<Document> docs, DocId next_id) = 0;

  virtual const char* backend_name() const = 0;
};

/// Adapter over any collection with the shared duck-typed API
/// (Insert/Erase/Count/Find/Extract/Contains/DocLenOf/num_docs/live_symbols);
/// optional capabilities (PollPending, ForceAllPending, CheckInvariants) are
/// detected with `requires` and forwarded when present.
template <typename Coll>
class CollectionIndex final : public DynamicIndex {
 public:
  template <typename... Args>
  explicit CollectionIndex(const char* name, Args&&... args)
      : name_(name), coll_(std::forward<Args>(args)...) {}

  DocId Insert(std::vector<Symbol> symbols) override {
    if (!Storable(symbols)) return kInvalidDocId;
    return coll_.Insert(std::move(symbols));
  }
  bool Erase(DocId id) override { return coll_.Erase(id); }

  std::vector<DocId> InsertBulk(
      std::vector<std::vector<Symbol>> docs) override {
    // The backend bulk path requires a cold structure and non-degenerate
    // documents; warm indexes, batches containing unstorable documents, and
    // backends without a bulk path take the incremental loop (which rejects
    // the unstorable documents one by one).
    if constexpr (requires(Coll& c) { c.InsertBulk(docs); }) {
      bool all_storable = true;
      for (const auto& doc : docs) all_storable &= Storable(doc);
      if (all_storable && coll_.num_docs() == 0 &&
          coll_.live_symbols() == 0) {
        return coll_.InsertBulk(std::move(docs));
      }
    }
    return DynamicIndex::InsertBulk(std::move(docs));
  }

  uint64_t Count(const std::vector<Symbol>& pattern) const override {
    if (!IsQueryablePattern(pattern)) return 0;
    return coll_.Count(pattern);
  }
  std::vector<Occurrence> Locate(
      const std::vector<Symbol>& pattern) const override {
    if (!IsQueryablePattern(pattern)) return {};
    return coll_.Find(pattern);
  }
  std::vector<Symbol> Extract(DocId id, uint64_t from,
                              uint64_t len) const override {
    if (!coll_.Contains(id)) return {};
    uint64_t doc_len = coll_.DocLenOf(id);
    if (from >= doc_len) return {};
    len = std::min(len, doc_len - from);
    if (len == 0) return {};
    return coll_.Extract(id, from, len);
  }
  bool Contains(DocId id) const override { return coll_.Contains(id); }
  uint64_t DocLenOf(DocId id) const override {
    return coll_.Contains(id) ? coll_.DocLenOf(id) : 0;
  }
  uint64_t num_docs() const override { return coll_.num_docs(); }
  uint64_t live_symbols() const override { return coll_.live_symbols(); }

  void PollPending() override {
    if constexpr (requires(Coll& c) { c.PollPending(); }) {
      coll_.PollPending();
    }
  }
  void ForceAllPending() override {
    if constexpr (requires(Coll& c) { c.ForceAllPending(); }) {
      coll_.ForceAllPending();
    }
  }
  void CheckInvariants() const override {
    if constexpr (requires(const Coll& c) { c.CheckInvariants(); }) {
      coll_.CheckInvariants();
    }
  }

  void ExportSnapshot(std::vector<Document>* docs, DocId* next_id) override {
    coll_.ExportSnapshot(docs, next_id);
  }
  void LoadSnapshot(std::vector<Document> docs, DocId next_id) override {
    coll_.LoadSnapshot(std::move(docs), next_id);
  }

  const char* backend_name() const override { return name_; }

  Coll& collection() { return coll_; }
  const Coll& collection() const { return coll_; }

 private:
  /// Whether the facade accepts `doc` for this backend: non-empty, no
  /// reserved symbols, and within the backend's alphabet capacity when it
  /// advertises one (the dynamic FM baseline's fixed max_symbol; the
  /// transformation backends remap any symbol below the terminator range).
  bool Storable(const std::vector<Symbol>& doc) const {
    if (doc.empty()) return false;
    Symbol bound = kMaxPatternSymbol;
    if constexpr (requires(const Coll& c) { c.max_symbol(); }) {
      bound = std::min<Symbol>(bound, coll_.max_symbol());
    }
    for (Symbol s : doc) {
      if (s < kMinSymbol || s >= bound) return false;
    }
    return true;
  }

  const char* name_;
  Coll coll_;
};

/// Which dynamization backs the index.
enum class Backend { kT1, kT2, kT3, kBaseline };

const char* BackendName(Backend backend);

/// One options bag for every backend; fields irrelevant to the chosen backend
/// are ignored (e.g. `mode` outside kT2, `baseline_*` outside kBaseline).
struct DynamicIndexOptions {
  uint32_t tau = 0;        // dead-fraction purge knob; 0 = auto
  double epsilon = 0.5;    // Transformation-1 growth exponent
  uint64_t min_c0 = 4096;  // C0 capacity floor
  bool counting = false;   // Theorem-1 counting augmentation
  RebuildMode mode = RebuildMode::kSynchronous;  // kT2 only
  uint32_t baseline_max_docs = 4096;
  uint32_t baseline_max_symbol = 258;
  uint32_t sample_rate = 32;  // SA sample rate of the static/dynamic index
};

/// Builds a facade over the requested backend (FmIndex as the static index
/// for the Transformation backends).
std::unique_ptr<DynamicIndex> MakeDynamicIndex(
    Backend backend, const DynamicIndexOptions& opt = {});

}  // namespace dyndex

#endif  // DYNDEX_SERVE_DYNAMIC_INDEX_H_

// Durability plumbing for the serving layer: the record codecs that put
// facade batches into WAL frames and facade state into snapshot sections,
// plus the per-core DurableLog that owns a directory's on-disk state.
//
// Per-core layout (one directory per EpochGuard-wrapped backend):
//   <dir>/SNAPSHOT  checksummed section container (persist/snapshot.h):
//                   "meta"  version / kind / backend name / last covered seq
//                   "docs"  every live document + next id   (index cores)
//                   "pairs" every live pair                  (relation cores)
//   <dir>/WAL       framed log (persist/wal.h); one frame per applied batch,
//                   seq strictly +1 per frame, payload = record codec below.
//
// Durable state at any instant = SNAPSHOT ⊕ the WAL frames past its seq.
// Recovery loads the snapshot, replays exactly the frames with seq above the
// snapshot's, truncates the log at the first bad frame (prefix contract of
// ScanWal), and reopens for append. A checkpoint writes a fresh snapshot
// (atomic rename) and only then resets the log — a crash between the two
// replays old frames against the new snapshot, which the seq skip rule makes
// a no-op, so every crash point lands on a batch-prefix-consistent state.
//
// Logging is linearized with the batch: the facade encodes the payload
// before applying (the apply may consume its input), applies inside the
// exclusive section, and appends the frame before the section ends — a batch
// that throws logs nothing, and no reader-visible state ever leads the log
// by more than the current unsynced group-commit window.
#ifndef DYNDEX_SERVE_PERSISTENCE_H_
#define DYNDEX_SERVE_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/status.h"
#include "persist/wal.h"
#include "serve/dynamic_index.h"
#include "serve/epoch_guard.h"
#include "serve/relation_index.h"
#include "text/concat_text.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace dyndex {

/// Durability knobs shared by every durable facade.
struct DurableOptions {
  /// Group-commit window: fsync the WAL after this many logged batches.
  /// 1 (default) syncs every batch — nothing acked is ever lost; larger
  /// windows trade the unsynced tail for throughput; 0 never syncs
  /// automatically (the caller drives SyncWal()).
  uint64_t sync_every_batches = 1;
};

/// What recovery found and did; filled by OpenDurable.
struct RecoveryStats {
  bool snapshot_loaded = false;    // a SNAPSHOT existed and verified
  uint64_t snapshot_seq = 0;       // batches the snapshot covered
  uint64_t replayed_batches = 0;   // WAL frames applied on top
  uint64_t skipped_frames = 0;     // frames at or below the snapshot seq
  uint64_t dropped_wal_bytes = 0;  // torn/corrupt tail truncated away
};

namespace serve_persist {

inline constexpr uint32_t kFormatVersion = 1;
inline constexpr char kSnapshotFileName[] = "SNAPSHOT";
inline constexpr char kWalFileName[] = "WAL";
inline constexpr char kManifestFileName[] = "MANIFEST";
inline constexpr char kMetaSection[] = "meta";
inline constexpr char kDocsSection[] = "docs";
inline constexpr char kPairsSection[] = "pairs";

/// WAL record kinds — one per facade batch operation.
enum class WalOp : uint8_t {
  kInsertDocs = 1,
  kEraseDocs = 2,
  kAddPairs = 3,
  kRemovePairs = 4,
};

/// What state a snapshot/manifest meta section describes.
enum class StateKind : uint8_t {
  kIndex = 1,
  kRelation = 2,
  kShardedIndex = 3,
  kShardedRelation = 4,
};

// --- WAL record codec ------------------------------------------------------

std::string EncodeInsertBatch(const std::vector<std::vector<Symbol>>& docs);
std::string EncodeEraseBatch(const std::vector<DocId>& ids);
std::string EncodePairsBatch(WalOp op, const RelationPairs& pairs);

struct WalRecord {
  WalOp op = WalOp::kInsertDocs;
  std::vector<std::vector<Symbol>> docs;  // kInsertDocs
  std::vector<DocId> ids;                 // kEraseDocs
  RelationPairs pairs;                    // kAddPairs / kRemovePairs
};

/// Bounds-checked decode; kCorruption on any malformed payload (a frame CRC
/// protects against rot, not against a foreign/mis-versioned record).
persist::Status DecodeWalRecord(std::string_view payload, WalRecord* out);

// --- snapshot section codecs ----------------------------------------------

struct SnapshotMeta {
  uint32_t version = kFormatVersion;
  StateKind kind = StateKind::kIndex;
  std::string backend;      // backend_name() the state was exported from
  uint64_t last_seq = 0;    // WAL seq this snapshot covers
  uint64_t next_id = 0;     // index cores: the id counter to restore
  uint32_t num_shards = 0;  // sharded manifests: the bound shard count
};

std::string EncodeMeta(const SnapshotMeta& meta);
persist::Status DecodeMeta(std::string_view data, SnapshotMeta* out);

std::string EncodeDocs(const std::vector<Document>& docs);
persist::Status DecodeDocs(std::string_view data, std::vector<Document>* out);
std::string EncodePairs(const RelationPairs& pairs);
persist::Status DecodePairs(std::string_view data, RelationPairs* out);

// --- the per-core durable handle ------------------------------------------

/// Owns one directory's WAL writer, the logged-batch sequence, the
/// group-commit countdown, and the sticky failure status. Writer-thread-only
/// after open (same discipline as the facade mutations it rides along with).
///
/// The single-writer contract is machine-checked as a *role capability*
/// (util/sync.h ThreadRole): the mutable state is GUARDED_BY(writer_role_)
/// and every mutating entry point REQUIRES it, so a call from a path that
/// never established the role (via writer_role().AssertHeld(), a runtime
/// no-op) is a compile error under -Wthread-safety. The facades assert the
/// role inside their exclusive-writer sections — including inside Write()
/// lambdas, which the analysis treats as separate functions.
///
/// Failure model is fail-stop for the log: once an append or sync fails, the
/// status sticks, further appends are dropped, and every durability
/// entry point (SyncWal / Checkpoint / Close) reports the original error —
/// the in-memory facade keeps serving, it just stops promising durability.
class DurableLog {
 public:
  /// Phase 1 of open: ensures `dir` exists, reads the snapshot (`snapshot`
  /// left empty when none), scans the WAL prefix. No writes yet.
  static persist::Status Attach(persist::Env* env, const std::string& dir,
                                const DurableOptions& opt,
                                std::unique_ptr<DurableLog>* out,
                                std::vector<persist::SnapshotSection>* snapshot,
                                persist::WalScanResult* wal);

  /// Phase 2, after the caller replayed the scanned frames: records the
  /// recovered sequence, truncates any torn tail the scan reported, and
  /// opens the writer for append (creating the log when absent).
  persist::Status FinishOpen(uint64_t seq, const persist::WalScanResult& wal)
      DYNDEX_REQUIRES(writer_role_);

  /// Logs one applied batch (call inside the exclusive section, after the
  /// apply succeeded). Never throws; failures stick in status().
  void LogApplied(std::string_view payload) DYNDEX_REQUIRES(writer_role_);

  /// Group commit: syncs when the unsynced batch count reaches the window.
  persist::Status MaybeSync() DYNDEX_REQUIRES(writer_role_);
  /// Unconditional sync of everything logged so far.
  persist::Status Sync() DYNDEX_REQUIRES(writer_role_);

  /// Writes `sections` as the new snapshot (atomic temp + rename), then
  /// resets the WAL. The caller provides a meta section whose last_seq is
  /// seq() — state exported under the same exclusive-writer discipline that
  /// froze the log.
  persist::Status Checkpoint(
      const std::vector<persist::SnapshotSection>& sections)
      DYNDEX_REQUIRES(writer_role_);

  /// Final sync + close. The log is unusable afterwards.
  persist::Status Close() DYNDEX_REQUIRES(writer_role_);

  persist::Status status() const DYNDEX_REQUIRES(writer_role_) {
    return status_;
  }
  uint64_t seq() const DYNDEX_REQUIRES(writer_role_) { return seq_; }

  /// The single-writer role capability; call writer_role().AssertHeld() at
  /// the top of any writer-discipline scope (including inside Write()
  /// lambdas) before touching the log.
  const ThreadRole& writer_role() const
      DYNDEX_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

  persist::Env* env() const { return env_; }
  const std::string& dir() const { return dir_; }
  std::string snapshot_path() const { return dir_ + "/" + kSnapshotFileName; }
  std::string wal_path() const { return dir_ + "/" + kWalFileName; }

 private:
  DurableLog(persist::Env* env, std::string dir, const DurableOptions& opt)
      : env_(env), dir_(std::move(dir)), opt_(opt) {}

  persist::Env* env_;
  std::string dir_;
  DurableOptions opt_;
  /// The single-writer state, guarded by the role capability (see the class
  /// comment): mutated only from the facade's exclusive-writer discipline.
  ThreadRole writer_role_;
  std::unique_ptr<persist::WalWriter> wal_ DYNDEX_GUARDED_BY(writer_role_);
  /// Last logged (or recovered) batch seq.
  uint64_t seq_ DYNDEX_GUARDED_BY(writer_role_) = 0;
  /// Batches logged since the last sync.
  uint64_t unsynced_ DYNDEX_GUARDED_BY(writer_role_) = 0;
  persist::Status status_ DYNDEX_GUARDED_BY(writer_role_) =
      persist::Status::Ok();
};

// --- core-level open / replay / checkpoint --------------------------------
//
// These operate on one EpochGuard core (one shard of a sharded facade, see
// serve/sharded_core.h) and are overloaded on its backend, so
// ShardedCore<Backend> reaches the right one by overload resolution.
// Preconditions: the core is fresh (empty, epoch 0) and externally quiesced
// — recovery IS the writer. Snapshot loads run under Maintain (state
// restoration, epoch untouched); frame replay runs under Write with no
// logging, so the epoch after open counts exactly the batches replayed on
// top of the snapshot. Every shard snapshot records StateKind::kIndex or
// kRelation; the MANIFEST records the sharded kinds.

persist::Status OpenDurableCore(persist::Env* env, const std::string& dir,
                                const DurableOptions& opt,
                                EpochGuard<DynamicIndex>& core,
                                std::unique_ptr<DurableLog>* out,
                                RecoveryStats* stats);
persist::Status OpenDurableCore(persist::Env* env, const std::string& dir,
                                const DurableOptions& opt,
                                EpochGuard<RelationIndex>& core,
                                std::unique_ptr<DurableLog>* out,
                                RecoveryStats* stats);

persist::Status CheckpointCore(EpochGuard<DynamicIndex>& core,
                               DurableLog& log);
persist::Status CheckpointCore(EpochGuard<RelationIndex>& core,
                               DurableLog& log);

// --- sharded manifest ------------------------------------------------------
//
// The sharded core binds its shard set with one more snapshot container
// (a single meta section) at <dir>/MANIFEST. The manifest is written on the
// first durable open, before any shard logs a batch; on reopen a kind /
// shard-count / backend mismatch is refused loudly, and every bound shard
// directory must still hold its log — a vanished shard is kCorruption, not
// an empty shard silently served.

persist::Status WriteManifest(persist::Env* env, const std::string& dir,
                              const SnapshotMeta& meta);

/// NotFound when no manifest exists (first open); kCorruption on damage.
persist::Status ReadManifest(persist::Env* env, const std::string& dir,
                             SnapshotMeta* out);

/// Reopen-time check that `meta` (from disk) matches what the facade was
/// built with; kInvalidArgument with a descriptive message otherwise.
persist::Status CheckManifest(const SnapshotMeta& meta, StateKind kind,
                              uint32_t num_shards, const char* backend);

}  // namespace serve_persist
}  // namespace dyndex

#endif  // DYNDEX_SERVE_PERSISTENCE_H_

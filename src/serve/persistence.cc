#include "serve/persistence.h"

#include <string>
#include <utility>
#include <vector>

#include "persist/format.h"
#include "util/check.h"

namespace dyndex {
namespace serve_persist {

namespace {

using persist::Decoder;
using persist::Status;

/// Guards against a length field (already CRC-checked, but possibly from a
/// foreign or future-format record) demanding more elements than the payload
/// can physically hold — refuse before allocating.
bool FitsRemaining(const Decoder& dec, uint64_t count, uint64_t unit) {
  return unit == 0 || count <= dec.remaining() / unit;
}

}  // namespace

// --- WAL record codec ------------------------------------------------------

std::string EncodeInsertBatch(const std::vector<std::vector<Symbol>>& docs) {
  uint64_t size = 1 + 4;
  for (const auto& doc : docs) size += 8 + 4 * doc.size();
  std::string out;
  out.reserve(size);
  persist::PutU8(&out, static_cast<uint8_t>(WalOp::kInsertDocs));
  persist::PutU32(&out, static_cast<uint32_t>(docs.size()));
  for (const auto& doc : docs) {
    persist::PutU64(&out, doc.size());
    for (Symbol s : doc) persist::PutU32(&out, s);
  }
  return out;
}

std::string EncodeEraseBatch(const std::vector<DocId>& ids) {
  std::string out;
  persist::PutU8(&out, static_cast<uint8_t>(WalOp::kEraseDocs));
  persist::PutU32(&out, static_cast<uint32_t>(ids.size()));
  for (DocId id : ids) persist::PutU64(&out, id);
  return out;
}

std::string EncodePairsBatch(WalOp op, const RelationPairs& pairs) {
  DYNDEX_CHECK(op == WalOp::kAddPairs || op == WalOp::kRemovePairs);
  std::string out;
  persist::PutU8(&out, static_cast<uint8_t>(op));
  persist::PutU32(&out, static_cast<uint32_t>(pairs.size()));
  for (auto [o, a] : pairs) {
    persist::PutU32(&out, o);
    persist::PutU32(&out, a);
  }
  return out;
}

persist::Status DecodeWalRecord(std::string_view payload, WalRecord* out) {
  Decoder dec(payload);
  uint8_t op = 0;
  uint32_t n = 0;
  if (!dec.GetU8(&op) || !dec.GetU32(&n)) {
    return Status::Corruption("WAL record header truncated");
  }
  out->docs.clear();
  out->ids.clear();
  out->pairs.clear();
  switch (static_cast<WalOp>(op)) {
    case WalOp::kInsertDocs: {
      out->op = WalOp::kInsertDocs;
      if (!FitsRemaining(dec, n, 8)) {
        return Status::Corruption("WAL insert record count overruns payload");
      }
      out->docs.reserve(n);
      for (uint32_t d = 0; d < n; ++d) {
        uint64_t len = 0;
        if (!dec.GetU64(&len) || !FitsRemaining(dec, len, 4)) {
          return Status::Corruption("WAL insert record document truncated");
        }
        std::vector<Symbol> doc;
        doc.reserve(len);
        for (uint64_t i = 0; i < len; ++i) {
          uint32_t s = 0;
          if (!dec.GetU32(&s)) {
            return Status::Corruption("WAL insert record document truncated");
          }
          doc.push_back(s);
        }
        out->docs.push_back(std::move(doc));
      }
      break;
    }
    case WalOp::kEraseDocs: {
      out->op = WalOp::kEraseDocs;
      if (!FitsRemaining(dec, n, 8)) {
        return Status::Corruption("WAL erase record count overruns payload");
      }
      out->ids.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t id = 0;
        if (!dec.GetU64(&id)) {
          return Status::Corruption("WAL erase record truncated");
        }
        out->ids.push_back(id);
      }
      break;
    }
    case WalOp::kAddPairs:
    case WalOp::kRemovePairs: {
      out->op = static_cast<WalOp>(op);
      if (!FitsRemaining(dec, n, 8)) {
        return Status::Corruption("WAL pair record count overruns payload");
      }
      out->pairs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t o = 0, a = 0;
        if (!dec.GetU32(&o) || !dec.GetU32(&a)) {
          return Status::Corruption("WAL pair record truncated");
        }
        out->pairs.push_back({o, a});
      }
      break;
    }
    default:
      return Status::Corruption("WAL record has unknown op");
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("WAL record has trailing bytes");
  }
  return Status::Ok();
}

// --- snapshot section codecs ----------------------------------------------

std::string EncodeMeta(const SnapshotMeta& meta) {
  std::string out;
  persist::PutU32(&out, meta.version);
  persist::PutU8(&out, static_cast<uint8_t>(meta.kind));
  persist::PutLengthPrefixed(&out, meta.backend);
  persist::PutU64(&out, meta.last_seq);
  persist::PutU64(&out, meta.next_id);
  persist::PutU32(&out, meta.num_shards);
  return out;
}

persist::Status DecodeMeta(std::string_view data, SnapshotMeta* out) {
  Decoder dec(data);
  uint8_t kind = 0;
  std::string_view backend;
  if (!dec.GetU32(&out->version) || !dec.GetU8(&kind) ||
      !dec.GetLengthPrefixed(&backend) || !dec.GetU64(&out->last_seq) ||
      !dec.GetU64(&out->next_id) || !dec.GetU32(&out->num_shards) ||
      !dec.AtEnd()) {
    return Status::Corruption("snapshot meta section malformed");
  }
  if (out->version != kFormatVersion) {
    return Status::InvalidArgument("snapshot format version " +
                                   std::to_string(out->version) +
                                   " not supported (expected " +
                                   std::to_string(kFormatVersion) + ")");
  }
  if (kind < static_cast<uint8_t>(StateKind::kIndex) ||
      kind > static_cast<uint8_t>(StateKind::kShardedRelation)) {
    return Status::Corruption("snapshot meta has unknown state kind");
  }
  out->kind = static_cast<StateKind>(kind);
  out->backend.assign(backend);
  return Status::Ok();
}

std::string EncodeDocs(const std::vector<Document>& docs) {
  uint64_t size = 8;
  for (const Document& doc : docs) size += 8 + 8 + 4 * doc.symbols.size();
  std::string out;
  out.reserve(size);
  persist::PutU64(&out, docs.size());
  for (const Document& doc : docs) {
    persist::PutU64(&out, doc.id);
    persist::PutU64(&out, doc.symbols.size());
    for (Symbol s : doc.symbols) persist::PutU32(&out, s);
  }
  return out;
}

persist::Status DecodeDocs(std::string_view data, std::vector<Document>* out) {
  Decoder dec(data);
  uint64_t n = 0;
  if (!dec.GetU64(&n) || !FitsRemaining(dec, n, 16)) {
    return Status::Corruption("snapshot docs section malformed");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t d = 0; d < n; ++d) {
    Document doc;
    uint64_t len = 0;
    if (!dec.GetU64(&doc.id) || !dec.GetU64(&len) ||
        !FitsRemaining(dec, len, 4)) {
      return Status::Corruption("snapshot docs section truncated");
    }
    doc.symbols.reserve(len);
    for (uint64_t i = 0; i < len; ++i) {
      uint32_t s = 0;
      if (!dec.GetU32(&s)) {
        return Status::Corruption("snapshot docs section truncated");
      }
      doc.symbols.push_back(s);
    }
    out->push_back(std::move(doc));
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("snapshot docs section has trailing bytes");
  }
  return Status::Ok();
}

std::string EncodePairs(const RelationPairs& pairs) {
  std::string out;
  persist::PutU64(&out, pairs.size());
  for (auto [o, a] : pairs) {
    persist::PutU32(&out, o);
    persist::PutU32(&out, a);
  }
  return out;
}

persist::Status DecodePairs(std::string_view data, RelationPairs* out) {
  Decoder dec(data);
  uint64_t n = 0;
  if (!dec.GetU64(&n) || !FitsRemaining(dec, n, 8)) {
    return Status::Corruption("snapshot pairs section malformed");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t o = 0, a = 0;
    if (!dec.GetU32(&o) || !dec.GetU32(&a)) {
      return Status::Corruption("snapshot pairs section truncated");
    }
    out->push_back({o, a});
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("snapshot pairs section has trailing bytes");
  }
  return Status::Ok();
}

// --- DurableLog ------------------------------------------------------------

persist::Status DurableLog::Attach(
    persist::Env* env, const std::string& dir, const DurableOptions& opt,
    std::unique_ptr<DurableLog>* out,
    std::vector<persist::SnapshotSection>* snapshot,
    persist::WalScanResult* wal) {
  DYNDEX_RETURN_IF_ERROR(env->CreateDir(dir));
  std::unique_ptr<DurableLog> log(new DurableLog(env, dir, opt));

  snapshot->clear();
  Status s = persist::ReadSnapshotFile(env, log->snapshot_path(), snapshot);
  if (!s.ok() && !s.IsNotFound()) return s;  // corruption is loud, not empty

  *wal = persist::WalScanResult();
  s = persist::ScanWal(env, log->wal_path(), wal);
  if (!s.ok() && !s.IsNotFound()) return s;

  *out = std::move(log);
  return Status::Ok();
}

persist::Status DurableLog::FinishOpen(uint64_t seq,
                                       const persist::WalScanResult& wal) {
  seq_ = seq;
  if (env_->FileExists(wal_path())) {
    if (wal.dropped_bytes > 0) {
      DYNDEX_RETURN_IF_ERROR(persist::RewriteTruncated(env_, wal_path(), wal));
    }
    return persist::WalWriter::OpenForAppend(env_, wal_path(), &wal_);
  }
  return persist::WalWriter::Create(env_, wal_path(), &wal_);
}

void DurableLog::LogApplied(std::string_view payload) {
  if (!status_.ok()) return;  // fail-stop: never log past a broken tail
  DYNDEX_CHECK(wal_ != nullptr);
  ++seq_;
  Status s = wal_->Append(seq_, payload);
  if (!s.ok()) {
    status_ = s;
    return;
  }
  ++unsynced_;
}

persist::Status DurableLog::MaybeSync() {
  if (!status_.ok()) return status_;
  if (opt_.sync_every_batches == 0 || unsynced_ < opt_.sync_every_batches) {
    return Status::Ok();
  }
  return Sync();
}

persist::Status DurableLog::Sync() {
  if (!status_.ok()) return status_;
  if (wal_ == nullptr || unsynced_ == 0) return Status::Ok();
  Status s = wal_->Sync();
  if (!s.ok()) {
    status_ = s;
    return s;
  }
  unsynced_ = 0;
  return Status::Ok();
}

persist::Status DurableLog::Checkpoint(
    const std::vector<persist::SnapshotSection>& sections) {
  if (!status_.ok()) return status_;
  // Everything the snapshot covers must be on disk first: if the snapshot
  // write dies halfway, the old snapshot + full log still reconstruct.
  DYNDEX_RETURN_IF_ERROR(Sync());
  DYNDEX_RETURN_IF_ERROR(
      persist::WriteSnapshotFile(env_, snapshot_path(), sections));
  // The snapshot is durably renamed in; frames at or below seq_ are now
  // redundant (replay skips them), so resetting the log is safe at any
  // crash point. A failure here breaks the append handle — stick.
  Status s = persist::WalWriter::Create(env_, wal_path(), &wal_);
  if (!s.ok()) {
    status_ = s;
    return s;
  }
  unsynced_ = 0;
  return Status::Ok();
}

persist::Status DurableLog::Close() {
  Status s = Sync();
  wal_.reset();
  return s.ok() ? status_ : s;
}

// --- core-level open / replay / checkpoint --------------------------------

namespace {

/// Shared open skeleton: attach, load the verified snapshot via `load`,
/// replay the frame tail via `apply`, truncate + reopen for append.
template <typename LoadFn, typename ApplyFn>
Status OpenCore(persist::Env* env, const std::string& dir,
                const DurableOptions& opt, StateKind kind,
                const char* backend, std::unique_ptr<DurableLog>* out,
                RecoveryStats* stats, LoadFn load, ApplyFn apply) {
  std::unique_ptr<DurableLog> log;
  std::vector<persist::SnapshotSection> snapshot;
  persist::WalScanResult wal;
  DYNDEX_RETURN_IF_ERROR(DurableLog::Attach(env, dir, opt, &log, &snapshot, &wal));

  RecoveryStats st;
  uint64_t last_seq = 0;
  if (!snapshot.empty()) {
    const persist::SnapshotSection* meta_sec =
        persist::FindSection(snapshot, kMetaSection);
    if (meta_sec == nullptr) {
      return Status::Corruption("snapshot has no meta section");
    }
    SnapshotMeta meta;
    DYNDEX_RETURN_IF_ERROR(DecodeMeta(meta_sec->data, &meta));
    if (meta.kind != kind) {
      return Status::InvalidArgument(
          "snapshot state kind does not match this facade");
    }
    if (meta.backend != backend) {
      return Status::InvalidArgument("snapshot was exported from backend '" +
                                     meta.backend + "', facade runs '" +
                                     backend + "'");
    }
    DYNDEX_RETURN_IF_ERROR(load(snapshot, meta));
    last_seq = meta.last_seq;
    st.snapshot_loaded = true;
    st.snapshot_seq = last_seq;
  }

  for (persist::WalFrame& frame : wal.frames) {
    if (frame.seq <= last_seq) {
      // Only a checkpointed prefix may sit at or below the snapshot seq; a
      // low seq after replay began means the frame chain is inconsistent.
      if (st.replayed_batches > 0) {
        return Status::Corruption("WAL sequence went backwards");
      }
      ++st.skipped_frames;
      continue;
    }
    if (frame.seq != last_seq + 1) {
      return Status::Corruption("WAL sequence gap at frame seq " +
                                std::to_string(frame.seq));
    }
    WalRecord rec;
    DYNDEX_RETURN_IF_ERROR(DecodeWalRecord(frame.payload, &rec));
    DYNDEX_RETURN_IF_ERROR(apply(rec));
    last_seq = frame.seq;
    ++st.replayed_batches;
  }
  st.dropped_wal_bytes = wal.dropped_bytes;

  // Recovery IS the writer (the core is externally quiesced per the
  // contract above), so this thread holds the log's single-writer role.
  log->writer_role().AssertHeld();
  DYNDEX_RETURN_IF_ERROR(log->FinishOpen(last_seq, wal));
  *out = std::move(log);
  if (stats != nullptr) *stats = st;
  return Status::Ok();
}

}  // namespace

persist::Status OpenDurableCore(persist::Env* env, const std::string& dir,
                                const DurableOptions& opt,
                                EpochGuard<DynamicIndex>& core,
                                std::unique_ptr<DurableLog>* out,
                                RecoveryStats* stats) {
  DynamicIndex& idx = core.unsynchronized();
  DYNDEX_CHECK(idx.num_docs() == 0 && core.epoch() == 0);
  const char* backend = idx.backend_name();
  return OpenCore(
      env, dir, opt, StateKind::kIndex, backend, out, stats,
      [&](const std::vector<persist::SnapshotSection>& snapshot,
          const SnapshotMeta& meta) -> Status {
        const persist::SnapshotSection* docs_sec =
            persist::FindSection(snapshot, kDocsSection);
        if (docs_sec == nullptr) {
          return Status::Corruption("index snapshot has no docs section");
        }
        std::vector<Document> docs;
        DYNDEX_RETURN_IF_ERROR(DecodeDocs(docs_sec->data, &docs));
        core.Maintain([&](DynamicIndex& b) {
          b.LoadSnapshot(std::move(docs), meta.next_id);
        });
        return Status::Ok();
      },
      [&](WalRecord& rec) -> Status {
        switch (rec.op) {
          case WalOp::kInsertDocs:
            core.Write(
                [&](DynamicIndex& b) { b.InsertBulk(std::move(rec.docs)); });
            return Status::Ok();
          case WalOp::kEraseDocs:
            core.Write([&](DynamicIndex& b) {
              for (DocId id : rec.ids) b.Erase(id);
            });
            return Status::Ok();
          default:
            return Status::Corruption("relation record in an index WAL");
        }
      });
}

persist::Status CheckpointCore(EpochGuard<DynamicIndex>& core,
                               DurableLog& log) {
  // Checkpoint runs on the facade's writer thread by contract.
  log.writer_role().AssertHeld();
  if (!log.status().ok()) return log.status();
  std::vector<Document> docs;
  DocId next_id = 0;
  const char* backend = nullptr;
  core.Maintain([&](DynamicIndex& b) {
    b.ExportSnapshot(&docs, &next_id);
    backend = b.backend_name();
  });
  SnapshotMeta meta;
  meta.kind = StateKind::kIndex;
  meta.backend = backend;
  meta.last_seq = log.seq();
  meta.next_id = next_id;
  std::vector<persist::SnapshotSection> sections;
  sections.push_back({kMetaSection, EncodeMeta(meta)});
  sections.push_back({kDocsSection, EncodeDocs(docs)});
  return log.Checkpoint(sections);
}

persist::Status OpenDurableCore(persist::Env* env, const std::string& dir,
                                const DurableOptions& opt,
                                EpochGuard<RelationIndex>& core,
                                std::unique_ptr<DurableLog>* out,
                                RecoveryStats* stats) {
  RelationIndex& rel = core.unsynchronized();
  DYNDEX_CHECK(rel.num_pairs() == 0 && core.epoch() == 0);
  const char* backend = rel.backend_name();
  return OpenCore(
      env, dir, opt, StateKind::kRelation, backend, out, stats,
      [&](const std::vector<persist::SnapshotSection>& snapshot,
          const SnapshotMeta&) -> Status {
        const persist::SnapshotSection* pairs_sec =
            persist::FindSection(snapshot, kPairsSection);
        if (pairs_sec == nullptr) {
          return Status::Corruption("relation snapshot has no pairs section");
        }
        RelationPairs pairs;
        DYNDEX_RETURN_IF_ERROR(DecodePairs(pairs_sec->data, &pairs));
        core.Maintain([&](RelationIndex& b) { b.AddPairsBulk(pairs); });
        return Status::Ok();
      },
      [&](WalRecord& rec) -> Status {
        switch (rec.op) {
          case WalOp::kAddPairs:
            core.Write([&](RelationIndex& b) { b.AddPairsBulk(rec.pairs); });
            return Status::Ok();
          case WalOp::kRemovePairs:
            core.Write([&](RelationIndex& b) {
              for (auto [o, a] : rec.pairs) b.RemovePair(o, a);
            });
            return Status::Ok();
          default:
            return Status::Corruption("index record in a relation WAL");
        }
      });
}

persist::Status CheckpointCore(EpochGuard<RelationIndex>& core,
                               DurableLog& log) {
  // Checkpoint runs on the facade's writer thread by contract.
  log.writer_role().AssertHeld();
  if (!log.status().ok()) return log.status();
  RelationPairs pairs;
  const char* backend = nullptr;
  core.Maintain([&](RelationIndex& b) {
    b.ExportLivePairs(&pairs);
    backend = b.backend_name();
  });
  SnapshotMeta meta;
  meta.kind = StateKind::kRelation;
  meta.backend = backend;
  meta.last_seq = log.seq();
  std::vector<persist::SnapshotSection> sections;
  sections.push_back({kMetaSection, EncodeMeta(meta)});
  sections.push_back({kPairsSection, EncodePairs(pairs)});
  return log.Checkpoint(sections);
}

// --- sharded manifest ------------------------------------------------------

persist::Status WriteManifest(persist::Env* env, const std::string& dir,
                              const SnapshotMeta& meta) {
  std::vector<persist::SnapshotSection> sections;
  sections.push_back({kMetaSection, EncodeMeta(meta)});
  return persist::WriteSnapshotFile(env, dir + "/" + kManifestFileName,
                                    sections);
}

persist::Status ReadManifest(persist::Env* env, const std::string& dir,
                             SnapshotMeta* out) {
  std::vector<persist::SnapshotSection> sections;
  DYNDEX_RETURN_IF_ERROR(persist::ReadSnapshotFile(
      env, dir + "/" + kManifestFileName, &sections));
  const persist::SnapshotSection* meta_sec =
      persist::FindSection(sections, kMetaSection);
  if (meta_sec == nullptr) {
    return Status::Corruption("manifest has no meta section");
  }
  return DecodeMeta(meta_sec->data, out);
}

persist::Status CheckManifest(const SnapshotMeta& meta, StateKind kind,
                              uint32_t num_shards, const char* backend) {
  if (meta.kind != kind) {
    return Status::InvalidArgument(
        "manifest state kind does not match this facade");
  }
  if (meta.num_shards != num_shards) {
    return Status::InvalidArgument(
        "manifest binds " + std::to_string(meta.num_shards) +
        " shards, facade was built with " + std::to_string(num_shards));
  }
  if (meta.backend != backend) {
    return Status::InvalidArgument("manifest binds backend '" + meta.backend +
                                   "', facade runs '" + backend + "'");
  }
  return Status::Ok();
}

}  // namespace serve_persist
}  // namespace dyndex

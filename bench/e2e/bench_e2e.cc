// bench_e2e: the end-to-end benchmark of the durable sharded serving stack.
//
// One process runs one named workload against the public ShardedIndex /
// ShardedRelation API, made durable with OpenDurable on the real filesystem
// (through TimedEnv, which counts device calls) with sync_every_batches = 1:
//
//   set-up   build the facade from generated inputs and checkpoint it
//   tail     the first kTailBatches batches of the write stream, closed loop
//            (paced where the phase has no writer), model check, CloseDurable
//   recover  reopen that directory kRecoverRepeats times (median reported)
//   set-up   twice more, from scratch (setup_s = median of the three)
//   phase    closed-loop readers and/or one writer for --duration_s on the
//            last set-up
//   verify   space accounting, model check; traced runs add the layer
//            ladder, and after it the twin: the write stream replayed into
//            bare backends
//
// Every input comes from --seed. Every answer the benchmark can predict is
// checked: docs_search compares each reply against precomputed answers, and
// every workload compares the facade against a bench-side model after the
// tail, after recovery and after the phase. Wrong answers and non-OK
// statuses count as failures, and any failure makes the exit code non-zero.
//
// Usage:
//   bench_e2e --workload=<docs_search|docs_mixed|graph_churn|docs_ingest>
//             --seed=<n> --dir=<scratch dir> --duration_s=<s>
//             [--trace=<file>] [--scale=full|smoke]
//
// The last stdout line is one JSON object with every metric, its unit and
// its sample count. See README.md for what each workload and metric is for.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/transformation2.h"
#include "gen/relation_gen.h"
#include "gen/text_gen.h"
#include "persist/env.h"
#include "serve/dynamic_index.h"
#include "serve/relation_index.h"
#include "serve/sharded_index.h"
#include "serve/sharded_relation.h"
#include "text/fm_index.h"
#include "timed_env.h"
#include "trace.h"
#include "util/rng.h"

namespace dyndex {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// Client threads: at most kReaders closed-loop readers plus one writer, so
// the benchmark never runs more client threads than a 4-core host has cores.
constexpr uint32_t kReaders = 3;
constexpr uint32_t kSetupRepeats = 3;
constexpr uint32_t kRecoverRepeats = 3;
constexpr uint32_t kSigma = 64;
constexpr uint64_t kPatternLen = 8;
constexpr uint32_t kPatternPool = 4096;
constexpr uint64_t kExtractLen = 64;
constexpr double kTwinBudgetS = 2.0;
constexpr uint64_t kTailBatches = 256;
constexpr double kTailRate = 50;  // batches/s, where the tail is paced

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double duration_s = 0;  // required
  std::string trace;  // empty: untraced
  std::string dir;
  bool smoke = false;

  /// Full-size count, or 1/16 of it at --scale=smoke.
  uint64_t Scaled(uint64_t full) const {
    return smoke ? std::max<uint64_t>(1, full / 16) : full;
  }
};

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull));
  r.Next();
  return r.Next();
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

void SleepUntilNs(uint64_t t) {
  const uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Nearest-rank quantile of `v` (reorders it).
double Quantile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto n = static_cast<double>(v.size());
  auto k = static_cast<size_t>(std::max(1.0, std::ceil(q * n))) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint32_t SaturatingNs(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

// --- report ----------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              uint64_t samples = 0) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit, samples});
  }

  void Fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 20) {
      std::fprintf(stderr, "bench_e2e: FAILED: %s\n", what.c_str());
    }
  }
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
  }
  void CheckOk(const persist::Status& st, const std::string& what) {
    Check(st.ok(), what + ": " + st.ToString());
  }
  /// Merges a client thread's tallies.
  void Add(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t failed() const { return failed_; }

  void Print(const std::string& workload) const {
    for (const auto& m : metrics_) {
      std::printf("%-36s %14.6g %-8s", m.name.c_str(), m.value, m.unit);
      if (m.samples > 0) {
        std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
      }
      std::printf("\n");
    }
    std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                workload.c_str(), static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %llu}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit,
                  static_cast<unsigned long long>(m.samples));
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    uint64_t samples;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Latencies (ns) of one client thread. Past kReservoir samples it keeps a
/// uniform sample of them (reservoir sampling), so the benchmark's own memory,
/// and with it peak_rss_mb, does not grow with throughput.
class LatencySample {
 public:
  static constexpr size_t kReservoir = 1 << 18;

  void Add(uint64_t ns) {
    const uint32_t v = SaturatingNs(ns);
    if (values_.size() < kReservoir) {
      values_.push_back(v);
    } else if (const uint64_t j = rng_.Below(seen_ + 1); j < kReservoir) {
      values_[j] = v;
    }
    ++seen_;
  }
  uint64_t seen() const { return seen_; }
  const std::vector<uint32_t>& values() const { return values_; }

 private:
  std::vector<uint32_t> values_;
  uint64_t seen_ = 0;
  Rng rng_;
};

/// One client thread's record of the measured phase.
struct OpLog {
  LatencySample lat;
  std::vector<uint64_t> windows;  // completed operations per window
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The phase clock: operations completing in [start, end) count, bucketed
/// into fixed windows.
struct PhaseClock {
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t window_ns = 0;
  size_t windows = 0;

  /// Tallies one operation ending at t1 and, if it ended within the phase,
  /// its latency (from `due`, which is its start for closed-loop clients)
  /// and its window.
  void Record(OpLog& log, uint64_t due, uint64_t t1, bool ok) const {
    ++log.attempted;
    log.failed += ok ? 0 : 1;
    if (t1 < start || t1 >= end) return;
    log.lat.Add(t1 - due);
    if (windows == 0) return;
    if (log.windows.size() != windows) log.windows.assign(windows, 0);
    log.windows[(t1 - start) / window_ns]++;
  }
};

/// Operations per second of the summed logs over the whole phase.
double PhaseRate(const std::vector<OpLog*>& logs, const PhaseClock& clock) {
  uint64_t n = 0;
  for (const OpLog* l : logs) {
    for (uint64_t c : l->windows) n += c;
  }
  return static_cast<double>(n) / Seconds(clock.end - clock.start);
}

/// Median rate of the summed logs over every `step`-th window from `first`.
double WindowRate(const std::vector<OpLog*>& logs, const PhaseClock& clock,
                  size_t first = 0, size_t step = 1) {
  std::vector<double> rates;
  for (size_t w = first; w < clock.windows; w += step) {
    uint64_t n = 0;
    for (const OpLog* l : logs) n += l->windows.empty() ? 0 : l->windows[w];
    rates.push_back(static_cast<double>(n) / Seconds(clock.window_ns));
  }
  return Median(rates);
}

/// One query of the layer ladder: an untraced warm-up call, so both layers
/// run on warm caches, then under one `ladder` span the facade call and the
/// bare call of each touched shard [first, first + count), each in a span of
/// its own. Returns whether the facade's answer size equals the shards' sum.
template <typename FacadeCall, typename BareCall>
bool LadderQuery(const char* ladder, const char* serve, const char* backend,
                 const FacadeCall& facade_call, uint32_t first, uint32_t count,
                 const BareCall& bare_call) {
  facade_call();
  Span ladder_span(ladder);
  uint64_t got, sum = 0;
  {
    Span span(serve);
    got = facade_call();
  }
  for (uint32_t s = first; s < first + count; ++s) {
    Span span(backend);
    sum += bare_call(s);
  }
  return got == sum;
}

// --- documents -------------------------------------------------------------

/// Packs a length-8 pattern (symbols below kMinSymbol + 256) into one key.
uint64_t Key8(const Symbol* p) {
  uint64_t k = 0;
  for (uint64_t i = 0; i < kPatternLen; ++i) k = k << 8 | (p[i] - kMinSymbol);
  return k;
}

/// Exact answers of `patterns` over `docs` (id, symbols): one pass over the
/// text with a hash of the pattern keys.
template <typename DocRange>
void SolvePatterns(const std::vector<std::vector<Symbol>>& patterns,
                   const DocRange& docs,
                   std::vector<std::vector<Occurrence>>* occ) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_key;
  for (uint32_t i = 0; i < patterns.size(); ++i) {
    by_key[Key8(patterns[i].data())].push_back(i);
  }
  occ->assign(patterns.size(), {});
  for (const auto& [id, sym] : docs) {
    if (sym.size() < kPatternLen) continue;
    for (uint64_t off = 0; off + kPatternLen <= sym.size(); ++off) {
      auto it = by_key.find(Key8(sym.data() + off));
      if (it == by_key.end()) continue;
      for (uint32_t i : it->second) (*occ)[i].push_back({id, off});
    }
  }
  for (auto& v : *occ) std::sort(v.begin(), v.end());
}

struct DocsSpec {
  uint32_t shards;
  uint64_t corpus_symbols;
  // Every set-up and fresh document has this length, so the T2 level
  // structure after a given number of batches is the same for every seed.
  uint64_t doc_len;
  uint32_t readers;
  double count_share;   // reader mix; the remainder after
  double locate_share;  // count + locate is Extract(kExtractLen)
  double write_rate;    // phase batches/s; 0 = no writer, < 0 = closed loop
  uint32_t batch_docs;  // documents inserted, and oldest erased, per batch
};

class DocsBench {
 public:
  using Facade = ShardedIndex;

  struct Batch {
    std::vector<std::vector<Symbol>> docs;
    std::vector<DocId> erase;
    std::vector<DocId> ids;
    uint64_t erased = 0;
  };

  DocsBench(const DocsSpec& spec, const Args& args)
      : spec_(spec), args_(args) {
    spec_.corpus_symbols = args.Scaled(spec.corpus_symbols);
  }

  uint32_t readers() const { return spec_.readers; }
  double write_rate() const { return spec_.write_rate; }
  Facade& facade() { return *facade_; }
  uint64_t user_bytes() const { return user_bytes_; }

  void Generate() {
    Rng rng(Mix(args_.seed, 1));
    uint64_t total = 0;
    while (total < spec_.corpus_symbols) {
      setup_docs_.push_back(MarkovText(rng, spec_.doc_len, kSigma));
      total += setup_docs_.back().size();
    }
    // 90% of the patterns are sampled from the documents the phase makes
    // live (set-up, and an open-loop writer's fresh ones), 10% are uniform
    // and mostly miss.
    std::vector<std::vector<Symbol>> sources = setup_docs_;
    const uint64_t fresh =
        spec_.write_rate > 0
            ? std::llround(spec_.write_rate * args_.duration_s) *
                  spec_.batch_docs
            : 0;
    for (uint64_t i = 0; i < fresh; ++i) sources.push_back(FreshDoc(i));
    for (uint32_t i = 0; i < kPatternPool; ++i) {
      patterns_.push_back(rng.Chance(0.9)
                              ? SamplePattern(rng, sources, kPatternLen, kSigma)
                              : UniformText(rng, kPatternLen, kSigma));
    }
  }

  void Drop() { facade_.reset(); }

  /// Builds a fresh durable facade at `dir` from the set-up inputs and
  /// resets the model; returns how long the set-up checkpoint took.
  double Build(persist::Env* env, const std::string& dir, Report& rep) {
    facade_ = MakeFacade();
    rep.CheckOk(facade_->OpenDurable(env, dir), "open durable set-up");
    std::vector<DocId> ids = facade_->InsertBatch(setup_docs_);
    const uint64_t t0 = NowNs();
    rep.CheckOk(facade_->Checkpoint(), "set-up checkpoint");
    const double checkpoint_s = Seconds(NowNs() - t0);
    live_.clear();
    fifo_.clear();
    live_symbols_ = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      rep.Check(ids[i] != kInvalidDocId, "set-up insert");
      AddLive(ids[i], setup_docs_[i]);
    }
    if (static_phase()) SolvePatterns(patterns_, live_, &answers_);
    return checkpoint_s;
  }

  persist::Status Reopen(persist::Env* env, const std::string& dir,
                         RecoveryStats* stats) {
    facade_ = MakeFacade();
    return facade_->OpenDurable(env, dir, {}, stats);
  }

  /// One closed-loop read: time the facade call, then check the reply.
  void Read(Rng& rng, OpLog& log, const PhaseClock& clock) const {
    const uint32_t pi = static_cast<uint32_t>(rng.Below(patterns_.size()));
    const std::vector<Symbol>& p = patterns_[pi];
    const double u = rng.NextDouble();
    bool ok = true;
    uint64_t t0 = 0, t1 = 0;
    if (u < spec_.count_share) {
      t0 = NowNs();
      uint64_t c;
      {
        Span span("serve.count");
        c = facade_->Count(p);
      }
      t1 = NowNs();
      if (static_phase()) ok = c == answers_[pi].size();
    } else if (u < spec_.count_share + spec_.locate_share) {
      t0 = NowNs();
      std::vector<Occurrence> occ;
      {
        Span span("serve.locate");
        occ = facade_->Locate(p);
      }
      t1 = NowNs();
      if (static_phase()) {
        std::sort(occ.begin(), occ.end());
        ok = occ == answers_[pi];
      }
    } else {
      // Extract is only in the static docs_search mix: the model is stable.
      const DocId id = fifo_[rng.Below(fifo_.size())];
      const std::vector<Symbol>& doc = live_.at(id);
      const uint64_t from =
          doc.size() > kExtractLen ? rng.Below(doc.size() - kExtractLen) : 0;
      std::vector<Symbol> out;
      t0 = NowNs();
      bool found;
      {
        Span span("serve.extract");
        found = facade_->Extract(id, from, kExtractLen, &out);
      }
      t1 = NowNs();
      const uint64_t n = std::min<uint64_t>(kExtractLen, doc.size() - from);
      ok = found && out.size() == n &&
           std::equal(out.begin(), out.end(), doc.begin() + from);
    }
    clock.Record(log, t0, t1, ok);
  }

  Batch Prepare(uint64_t i) const {
    Batch b;
    for (uint32_t j = 0; j < spec_.batch_docs; ++j) {
      b.docs.push_back(FreshDoc(i * spec_.batch_docs + j));
      b.erase.push_back(fifo_[j]);
    }
    return b;
  }

  void Apply(Batch& b) {
    b.ids = facade_->InsertBatch(b.docs);
    b.erased = facade_->EraseBatch(b.erase);
  }

  bool Commit(const Batch& b) {
    bool ok = b.erased == b.erase.size() && b.ids.size() == b.docs.size();
    for (size_t j = 0; j < b.ids.size(); ++j) {
      ok &= b.ids[j] != kInvalidDocId;
      AddLive(b.ids[j], b.docs[j]);
      user_bytes_ += b.docs[j].size() * sizeof(Symbol);
    }
    for (DocId id : b.erase) {
      live_symbols_ -= live_.at(id).size();
      live_.erase(id);
      user_bytes_ += sizeof(DocId);
    }
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<ptrdiff_t>(b.erase.size()));
    return ok;
  }

  /// Facade vs model: sizes, then Count + Locate of sampled patterns and
  /// Extract of sampled windows.
  void Verify(Rng& rng, Report& rep, const char* when) {
    const std::string at = std::string(" (") + when + ")";
    rep.Check(facade_->num_docs() == live_.size(), "num_docs" + at);
    rep.Check(facade_->live_symbols() == live_symbols_, "live_symbols" + at);
    std::vector<std::vector<Symbol>> pats;
    std::vector<std::vector<Symbol>> sources;
    for (int i = 0; i < 256; ++i) {
      sources.push_back(live_.at(fifo_[rng.Below(fifo_.size())]));
    }
    const uint64_t n = args_.Scaled(1000);
    for (uint64_t i = 0; i < n; ++i) {
      pats.push_back(rng.Chance(0.9)
                         ? SamplePattern(rng, sources, kPatternLen, kSigma)
                         : UniformText(rng, kPatternLen, kSigma));
    }
    std::vector<std::vector<Occurrence>> want;
    SolvePatterns(pats, live_, &want);
    for (size_t i = 0; i < pats.size(); ++i) {
      rep.Check(facade_->Count(pats[i]) == want[i].size(), "Count" + at);
      std::vector<Occurrence> got = facade_->Locate(pats[i]);
      std::sort(got.begin(), got.end());
      rep.Check(got == want[i], "Locate" + at);
      const DocId id = fifo_[rng.Below(fifo_.size())];
      const std::vector<Symbol>& doc = live_.at(id);
      const uint64_t from = rng.Below(doc.size());
      std::vector<Symbol> out;
      const bool found = facade_->Extract(id, from, kExtractLen, &out);
      const uint64_t len = std::min<uint64_t>(kExtractLen, doc.size() - from);
      rep.Check(found && out.size() == len &&
                    std::equal(out.begin(), out.end(), doc.begin() + from),
                "Extract" + at);
    }
  }

  /// Backend bytes per live symbol, and the uncompressed C0 share of them.
  std::pair<double, double> Space() {
    uint64_t total = 0, c0 = 0;
    for (uint32_t s = 0; s < facade_->num_shards(); ++s) {
      const SpaceBreakdown sp = T2Of(facade_->unsynchronized_shard(s)).Space();
      total += sp.total();
      c0 += sp.uncompressed;
    }
    return {static_cast<double>(total) / static_cast<double>(live_symbols_),
            static_cast<double>(c0) / static_cast<double>(total)};
  }

  /// Fixed read sample, quiesced: each query through the facade, then
  /// through every shard's bare backend it touches.
  void Ladder(Rng& rng, uint64_t n, Report& rep) {
    const uint32_t k = facade_->num_shards();
    const double count_share = spec_.readers > 0 ? spec_.count_share : 0.8;
    const double locate_share = spec_.readers > 0 ? spec_.locate_share : 0.2;
    auto shard = [&](uint32_t s) -> const DynamicIndex& {
      return facade_->unsynchronized_shard(s);
    };
    for (uint64_t q = 0; q < n; ++q) {
      const std::vector<Symbol>& p = patterns_[rng.Below(patterns_.size())];
      const double u = rng.NextDouble();
      bool ok;
      if (u < count_share) {
        ok = LadderQuery(
            "ladder.count", "serve.count", "backend.count",
            [&] { return facade_->Count(p); }, 0, k,
            [&](uint32_t s) { return shard(s).Count(p); });
      } else if (u < count_share + locate_share) {
        ok = LadderQuery(
            "ladder.locate", "serve.locate", "backend.locate",
            [&] { return facade_->Locate(p).size(); }, 0, k,
            [&](uint32_t s) { return shard(s).Locate(p).size(); });
      } else {
        const DocId id = fifo_[rng.Below(fifo_.size())];
        ok = LadderQuery(
            "ladder.extract", "serve.extract", "backend.extract",
            [&] {
              std::vector<Symbol> out;
              facade_->Extract(id, 0, kExtractLen, &out);
              return out.size();
            },
            facade_->shard_of(id), 1,
            [&](uint32_t s) {
              return shard(s).Extract(id / k, 0, kExtractLen).size();
            });
      }
      rep.Check(ok, "ladder: facade and backends disagree");
    }
  }

  /// Replays the write stream from the set-up state into bare T2 backends
  /// partitioned like the facade: no locks, no log, no pool.
  void Twin(uint64_t batches, double budget_s) {
    const uint32_t k = spec_.shards;
    std::vector<std::unique_ptr<DynamicIndex>> twin;
    std::vector<std::vector<std::vector<Symbol>>> sub(k);
    for (uint32_t s = 0; s < k; ++s) twin.push_back(MakeBackend());
    for (size_t i = 0; i < setup_docs_.size(); ++i) {
      sub[i % k].push_back(setup_docs_[i]);
    }
    std::deque<std::pair<uint32_t, DocId>> fifo;
    std::vector<std::vector<DocId>> first(k);
    for (uint32_t s = 0; s < k; ++s) first[s] = twin[s]->InsertBulk(sub[s]);
    for (size_t i = 0; i < setup_docs_.size(); ++i) {
      fifo.push_back({static_cast<uint32_t>(i % k), first[i % k][i / k]});
    }
    uint64_t cursor = setup_docs_.size();
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
    for (uint64_t b = 0; b < batches && NowNs() < deadline; ++b) {
      std::vector<std::vector<std::vector<Symbol>>> ins(k);
      std::vector<std::vector<DocId>> del(k);
      for (uint32_t j = 0; j < spec_.batch_docs; ++j) {
        ins[cursor++ % k].push_back(FreshDoc(b * spec_.batch_docs + j));
        del[fifo.front().first].push_back(fifo.front().second);
        fifo.pop_front();
      }
      Span span("twin.write");
      for (uint32_t s = 0; s < k; ++s) {
        if (ins[s].empty() && del[s].empty()) continue;
        Span shard_span("backend.write");
        for (DocId id : twin[s]->InsertBulk(std::move(ins[s]))) {
          fifo.push_back({s, id});
        }
        for (DocId id : del[s]) twin[s]->Erase(id);
      }
    }
  }

 private:
  using T2 = CollectionIndex<DynamicCollectionT2<FmIndex>>;

  /// No writer in the phase: the answers never change, so every reply is
  /// checked against answers computed once.
  bool static_phase() const { return spec_.write_rate == 0; }

  static DynamicIndexOptions Options() {
    DynamicIndexOptions opt;
    opt.mode = RebuildMode::kSynchronous;  // deterministic state evolution
    return opt;
  }
  std::unique_ptr<DynamicIndex> MakeBackend() const {
    return MakeDynamicIndex(Backend::kT2, Options());
  }
  std::unique_ptr<Facade> MakeFacade() const {
    return std::make_unique<Facade>(spec_.shards, Backend::kT2, Options());
  }
  static const DynamicCollectionT2<FmIndex>& T2Of(const DynamicIndex& idx) {
    return dynamic_cast<const T2&>(idx).collection();
  }

  /// Fresh document i of the write stream (generated on demand).
  std::vector<Symbol> FreshDoc(uint64_t i) const {
    Rng r(Mix(args_.seed, 0x100000 + i));
    return MarkovText(r, spec_.doc_len, kSigma);
  }

  void AddLive(DocId id, const std::vector<Symbol>& doc) {
    live_[id] = doc;
    fifo_.push_back(id);
    live_symbols_ += doc.size();
  }

  DocsSpec spec_;
  const Args& args_;
  std::vector<std::vector<Symbol>> setup_docs_;
  std::vector<std::vector<Symbol>> patterns_;
  std::vector<std::vector<Occurrence>> answers_;  // static phase only
  std::unique_ptr<Facade> facade_;
  // The model: live documents by id, oldest first in fifo_.
  std::unordered_map<DocId, std::vector<Symbol>> live_;
  std::deque<DocId> fifo_;
  uint64_t live_symbols_ = 0;
  uint64_t user_bytes_ = 0;
};

// --- graph -----------------------------------------------------------------

struct GraphSpec {
  uint32_t shards;
  uint64_t edges;
  uint32_t nodes;
  double zipf_theta;
  double has_edge_share;   // reader mix; the remainder after
  double neighbors_share;  // has_edge + neighbors is Reverse
  double write_rate;       // batches/s
  uint32_t batch_events;   // add/remove events of GenChurnStream per batch
};

uint64_t PairKey(uint32_t o, uint32_t l) { return uint64_t{o} << 32 | l; }

class GraphBench {
 public:
  using Facade = ShardedRelation;

  struct Batch {
    RelationPairs adds;
    RelationPairs removes;
    uint64_t added = 0;
    uint64_t removed = 0;
  };

  GraphBench(const GraphSpec& spec, const Args& args)
      : spec_(spec), args_(args) {
    spec_.edges = args.Scaled(spec.edges);
    spec_.nodes = static_cast<uint32_t>(args.Scaled(spec.nodes));
  }

  uint32_t readers() const { return kReaders; }
  double write_rate() const { return spec_.write_rate; }
  Facade& facade() { return *facade_; }
  uint64_t user_bytes() const { return user_bytes_; }

  /// `batches` bounds the write stream the run can consume (phase + tail).
  void Generate(uint64_t batches) {
    Rng rng(Mix(args_.seed, 2));
    setup_edges_ = GenEdges(rng, spec_.edges, spec_.nodes, spec_.zipf_theta);
    const uint64_t need = batches * spec_.batch_events;
    while (stream_.size() < need) {
      ChurnStreamOptions opt;
      opt.num_ops = need + need / 2 + 64;
      opt.num_objects = spec_.nodes;
      opt.num_labels = spec_.nodes;
      opt.zipf_theta = spec_.zipf_theta;
      for (const ChurnEvent& e : GenChurnStream(rng, opt)) {
        if (e.op == ChurnOp::kAdd || e.op == ChurnOp::kRemove) {
          stream_.push_back(e);
        }
      }
    }
  }

  void Drop() { facade_.reset(); }

  /// Builds a fresh durable facade at `dir` from the set-up inputs and
  /// resets the model; returns how long the set-up checkpoint took.
  double Build(persist::Env* env, const std::string& dir, Report& rep) {
    facade_ = MakeFacade();
    rep.CheckOk(facade_->OpenDurable(env, dir), "open durable set-up");
    const uint64_t added = facade_->AddPairsBatch(setup_edges_);
    const uint64_t t0 = NowNs();
    rep.CheckOk(facade_->Checkpoint(), "set-up checkpoint");
    const double checkpoint_s = Seconds(NowNs() - t0);
    rep.Check(added == setup_edges_.size(), "set-up edges");
    model_.clear();
    for (auto [u, v] : setup_edges_) model_.insert(PairKey(u, v));
    log_.clear();
    return checkpoint_s;
  }

  persist::Status Reopen(persist::Env* env, const std::string& dir,
                         RecoveryStats* stats) {
    facade_ = MakeFacade();
    return facade_->OpenDurable(env, dir, {}, stats);
  }

  /// One closed-loop read. Replies are checked against the model after the
  /// phase, not during it: the writer moves the answers.
  void Read(Rng& rng, OpLog& log, const PhaseClock& clock) const {
    const double u = rng.NextDouble();
    uint64_t t0, t1;
    if (u < spec_.has_edge_share) {
      uint32_t a, b;
      if (rng.Chance(0.5)) {
        std::tie(a, b) = setup_edges_[rng.Below(setup_edges_.size())];
      } else {
        a = static_cast<uint32_t>(rng.Below(spec_.nodes));
        b = static_cast<uint32_t>(rng.Below(spec_.nodes));
      }
      t0 = NowNs();
      {
        Span span("serve.has_edge");
        facade_->HasEdge(a, b);
      }
      t1 = NowNs();
    } else if (u < spec_.has_edge_share + spec_.neighbors_share) {
      const auto a = static_cast<uint32_t>(rng.Below(spec_.nodes));
      t0 = NowNs();
      {
        Span span("serve.neighbors");
        facade_->Neighbors(a);
      }
      t1 = NowNs();
    } else {
      const auto b = static_cast<uint32_t>(rng.Below(spec_.nodes));
      t0 = NowNs();
      {
        Span span("serve.reverse");
        facade_->Reverse(b);
      }
      t1 = NowNs();
    }
    clock.Record(log, t0, t1, true);
  }

  /// The net effect of batch i's events on the current model: the pairs to
  /// remove and to add (disjoint, so one remove batch then one add batch
  /// applies them).
  Batch Prepare(uint64_t i) const {
    std::map<uint64_t, bool> last;
    for (uint64_t j = i * spec_.batch_events; j < (i + 1) * spec_.batch_events;
         ++j) {
      const ChurnEvent& e = stream_[j];
      last[PairKey(e.object, e.label)] = e.op == ChurnOp::kAdd;
    }
    Batch b;
    for (auto [key, add] : last) {
      const bool live = model_.count(key) > 0;
      const std::pair<uint32_t, uint32_t> p{static_cast<uint32_t>(key >> 32),
                                            static_cast<uint32_t>(key)};
      if (add && !live) b.adds.push_back(p);
      if (!add && live) b.removes.push_back(p);
    }
    return b;
  }

  void Apply(Batch& b) {
    if (!b.removes.empty()) b.removed = facade_->RemovePairsBatch(b.removes);
    if (!b.adds.empty()) b.added = facade_->AddPairsBatch(b.adds);
  }

  bool Commit(const Batch& b) {
    for (auto [u, v] : b.removes) model_.erase(PairKey(u, v));
    for (auto [u, v] : b.adds) model_.insert(PairKey(u, v));
    user_bytes_ += (b.adds.size() + b.removes.size()) * 2 * sizeof(uint32_t);
    log_.push_back({b.adds, b.removes});
    return b.added == b.adds.size() && b.removed == b.removes.size();
  }

  void Verify(Rng& rng, Report& rep, const char* when) {
    const std::string at = std::string(" (") + when + ")";
    rep.Check(facade_->num_pairs() == model_.size(), "num_pairs" + at);
    const std::vector<uint64_t> live(model_.begin(), model_.end());
    const uint64_t n = args_.Scaled(1000);
    std::vector<uint32_t> rev_targets;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t key = live[rng.Below(live.size())];
      const auto u = static_cast<uint32_t>(key >> 32);
      const auto v = static_cast<uint32_t>(key);
      const auto x = static_cast<uint32_t>(rng.Below(spec_.nodes));
      const auto y = static_cast<uint32_t>(rng.Below(spec_.nodes));
      rep.Check(facade_->HasEdge(u, v), "HasEdge(live)" + at);
      rep.Check(facade_->HasEdge(x, y) == (model_.count(PairKey(x, y)) > 0),
                "HasEdge(random)" + at);
      std::vector<uint32_t> got = facade_->Neighbors(u);
      std::sort(got.begin(), got.end());
      std::vector<uint32_t> want;
      for (auto it = model_.lower_bound(PairKey(u, 0));
           it != model_.end() && (*it >> 32) == u; ++it) {
        want.push_back(static_cast<uint32_t>(*it));
      }
      rep.Check(got == want, "Neighbors" + at);
      rev_targets.push_back(rng.Chance(0.5) ? v : y);
    }
    std::unordered_map<uint32_t, std::vector<uint32_t>> rev;
    for (uint32_t v : rev_targets) rev[v];
    for (uint64_t key : live) {
      auto it = rev.find(static_cast<uint32_t>(key));
      if (it != rev.end()) {
        it->second.push_back(static_cast<uint32_t>(key >> 32));
      }
    }
    for (uint32_t v : rev_targets) {
      std::vector<uint32_t> got = facade_->Reverse(v);
      std::sort(got.begin(), got.end());
      rep.Check(got == rev[v], "Reverse" + at);
    }
  }

  /// Backend bytes per live pair, and the share of pairs still in C0.
  std::pair<double, double> Space() {
    uint64_t bytes = 0, c0 = 0;
    for (uint32_t s = 0; s < facade_->num_shards(); ++s) {
      RelationIndex& rel = facade_->unsynchronized_shard(s);
      bytes += rel.SpaceBytes();
      c0 += dynamic_cast<RelationAdapter<DynamicRelation>&>(rel)
                .relation()
                .c0_pairs();
    }
    const auto pairs = static_cast<double>(model_.size());
    return {static_cast<double>(bytes) / pairs,
            static_cast<double>(c0) / pairs};
  }

  void Ladder(Rng& rng, uint64_t n, Report& rep) {
    const uint32_t k = facade_->num_shards();
    auto shard = [&](uint32_t s) -> const RelationIndex& {
      return facade_->unsynchronized_shard(s);
    };
    for (uint64_t q = 0; q < n; ++q) {
      const double u = rng.NextDouble();
      const auto [a, b] = setup_edges_[rng.Below(setup_edges_.size())];
      const uint32_t owner = facade_->shard_of_object(a);
      bool ok;
      if (u < spec_.has_edge_share) {
        ok = LadderQuery(
            "ladder.has_edge", "serve.has_edge", "backend.has_edge",
            [&] { return uint64_t{facade_->HasEdge(a, b)}; }, owner, 1,
            [&](uint32_t s) { return uint64_t{shard(s).HasEdge(a, b)}; });
      } else if (u < spec_.has_edge_share + spec_.neighbors_share) {
        ok = LadderQuery(
            "ladder.neighbors", "serve.neighbors", "backend.neighbors",
            [&] { return facade_->Neighbors(a).size(); }, owner, 1,
            [&](uint32_t s) { return shard(s).Neighbors(a).size(); });
      } else {
        ok = LadderQuery(
            "ladder.reverse", "serve.reverse", "backend.reverse",
            [&] { return facade_->Reverse(b).size(); }, 0, k,
            [&](uint32_t s) { return shard(s).Reverse(b).size(); });
      }
      rep.Check(ok, "ladder: facade and backends disagree");
    }
  }

  /// Replays the applied write batches from the set-up state into bare
  /// Theorem 2 relations partitioned like the facade.
  void Twin(uint64_t batches, double budget_s) {
    const uint32_t k = spec_.shards;
    std::vector<std::unique_ptr<RelationIndex>> twin;
    std::vector<RelationPairs> sub(k);
    for (uint32_t s = 0; s < k; ++s) twin.push_back(MakeBackend());
    auto shard_of = [&](const std::pair<uint32_t, uint32_t>& p) {
      return facade_->shard_of_object(p.first);
    };
    for (auto p : setup_edges_) sub[shard_of(p)].push_back(p);
    for (uint32_t s = 0; s < k; ++s) twin[s]->AddPairsBulk(sub[s]);
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(budget_s * 1e9);
    batches = std::min<uint64_t>(batches, log_.size());
    for (size_t b = 0; b < batches && NowNs() < deadline; ++b) {
      std::vector<RelationPairs> add(k), del(k);
      for (auto p : log_[b].first) add[shard_of(p)].push_back(p);
      for (auto p : log_[b].second) del[shard_of(p)].push_back(p);
      Span span("twin.write");
      for (uint32_t s = 0; s < k; ++s) {
        if (add[s].empty() && del[s].empty()) continue;
        Span shard_span("backend.write");
        for (auto [o, l] : del[s]) twin[s]->RemovePair(o, l);
        if (!add[s].empty()) twin[s]->AddPairsBulk(add[s]);
      }
    }
  }

 private:
  std::unique_ptr<RelationIndex> MakeBackend() const {
    return MakeRelationIndex(RelationBackend::kTheorem2);
  }
  std::unique_ptr<Facade> MakeFacade() const {
    return std::make_unique<Facade>(spec_.shards, RelationBackend::kTheorem2);
  }

  GraphSpec spec_;
  const Args& args_;
  RelationPairs setup_edges_;
  std::vector<ChurnEvent> stream_;  // add/remove events only
  std::unique_ptr<Facade> facade_;
  std::set<uint64_t> model_;  // live pairs, PairKey order
  std::vector<std::pair<RelationPairs, RelationPairs>> log_;  // applied
  uint64_t user_bytes_ = 0;
};

// --- the shared run --------------------------------------------------------

uint64_t SnapshotBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().filename() == "SNAPSHOT") {
      total += e.file_size();
    }
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The resident set size now, from /proc/self/statm (0 where it is missing).
double RssMb() {
  long size = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// The bytes malloc has handed out and not had back (MB): live data only,
/// unlike the RSS, which also holds memory freed but kept by the allocator.
double HeapInUseMb() {
#ifdef __GLIBC__
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
#else
  return 0;
#endif
}

/// Logs the wall time and memory of one stage of the run to stderr and
/// restarts the stage clock, so the whole run's time is accounted for.
void LogStage(const char* stage, uint64_t* since_ns) {
  const uint64_t now = NowNs();
  std::fprintf(stderr,
               "bench_e2e: stage %-8s %7.2f s  heap %5.0f MB  rss %5.0f MB  "
               "peak %5.0f MB\n",
               stage, Seconds(now - *since_ns), HeapInUseMb(), RssMb(),
               PeakRssMb());
  *since_ns = now;
}

/// One write stream: the phase's writer, or the closed-loop tail.
struct WriteStream {
  OpLog log;  // latency from the due time; windows for a closed loop only
  EnvCounters io;
  uint64_t wall_ns = 0;
  uint64_t user_bytes = 0;
  uint64_t lag_max_ns = 0;
  uint64_t retired_max = 0;
};

/// Writes batches 0..n-1 of the workload's write stream. Open loop (rate >
/// 0): batch i is due at clock.start + i / rate and timed from then, however
/// late the writer runs. Closed loop: each batch is due when the previous one
/// was acknowledged, until n batches or the end of the clock.
template <typename Bench>
void RunWriter(Bench& bench, TimedEnv& env, double rate, uint64_t n,
               const PhaseClock& clock, WriteStream* ws) {
  const EnvCounters io0 = env.counters();
  const uint64_t user0 = bench.user_bytes();
  SleepUntilNs(clock.start);
  uint64_t prev_end = NowNs();
  for (uint64_t i = 0; i < n; ++i) {
    auto batch = bench.Prepare(i);
    uint64_t due = prev_end;
    if (rate > 0) {
      due = clock.start +
            static_cast<uint64_t>(static_cast<double>(i) * 1e9 / rate);
      SleepUntilNs(due);
    }
    const uint64_t t0 = NowNs();
    if (rate <= 0 && t0 >= clock.end) break;
    ws->lag_max_ns = std::max(ws->lag_max_ns, t0 - std::min(t0, due));
    {
      Span span("serve.write");
      bench.Apply(batch);
    }
    const uint64_t t1 = NowNs();
    const bool ok = bench.Commit(batch);
    if (rate > 0) {
      ws->log.lat.Add(t1 - due);
      ++ws->log.attempted;
      ws->log.failed += ok ? 0 : 1;
    } else {
      clock.Record(ws->log, t0, t1, ok);
    }
    ws->retired_max =
        std::max(ws->retired_max, bench.facade().retired_pending());
    prev_end = NowNs();
  }
  ws->wall_ns = NowNs() - clock.start;
  ws->io = env.counters() - io0;
  ws->user_bytes = bench.user_bytes() - user0;
}

OptimisticStats operator-(const OptimisticStats& a, const OptimisticStats& b) {
  OptimisticStats d;
  d.attempts = a.attempts - b.attempts;
  d.validated = a.validated - b.validated;
  d.retries = a.retries - b.retries;
  d.fallbacks = a.fallbacks - b.fallbacks;
  d.capture_exhausted = a.capture_exhausted - b.capture_exhausted;
  d.retries_exhausted = a.retries_exhausted - b.retries_exhausted;
  d.capture_stalled = a.capture_stalled - b.capture_stalled;
  d.locked_reads = a.locked_reads - b.locked_reads;
  return d;
}

struct Phase {
  PhaseClock clock;
  std::vector<OpLog> readers;
  WriteStream writes;
  OptimisticStats guard;  // read-path counters of the phase
};

/// The measured phase: closed-loop readers and the workload's writer for
/// --duration_s. The readers start one window early, unmeasured, so caches
/// and their own buffers are warm when the clock starts. Traced runs trace
/// every other window.
template <typename Bench>
Phase RunPhase(Bench& bench, TimedEnv& env, const Args& args) {
  Phase ph;
  PhaseClock& clock = ph.clock;
  clock.window_ns = args.duration_s >= 4
                        ? 1000000000ull
                        : static_cast<uint64_t>(args.duration_s * 0.25e9);
  clock.windows = static_cast<size_t>(std::llround(
      args.duration_s * 1e9 / static_cast<double>(clock.window_ns)));
  // 20 ms to let the client threads start, then the readers' warm-up.
  clock.start = NowNs() + 20000000 + clock.window_ns;
  clock.end = clock.start + clock.windows * clock.window_ns;
  ph.readers.resize(bench.readers());
  Trace::SetEnabled(false);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < bench.readers(); ++r) {
    readers.emplace_back([&, r] {
      Rng rng(Mix(args.seed, 100 + r));
      SleepUntilNs(clock.start - clock.window_ns);
      while (!stop.load(std::memory_order_relaxed)) {
        bench.Read(rng, ph.readers[r], clock);
      }
    });
  }
  std::thread writer;
  if (const double rate = bench.write_rate(); rate != 0) {
    const uint64_t n =
        rate > 0 ? static_cast<uint64_t>(std::llround(rate * args.duration_s))
                 : UINT64_MAX;
    writer = std::thread(
        [&, rate, n] { RunWriter(bench, env, rate, n, clock, &ph.writes); });
  }
  SleepUntilNs(clock.start);
  const OptimisticStats before = bench.facade().optimistic_stats();
  if (!args.trace.empty()) {
    // Odd windows traced, even windows not: comparing the two sets gives the
    // tracing overhead on the same evolving state.
    for (size_t w = 0; w < clock.windows; ++w) {
      SleepUntilNs(clock.start + w * clock.window_ns);
      Trace::SetEnabled(w % 2 == 1);
    }
  }
  SleepUntilNs(clock.end);
  Trace::SetEnabled(!args.trace.empty());
  if (writer.joinable()) writer.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();
  ph.guard = bench.facade().optimistic_stats() - before;
  return ph;
}

template <typename Bench>
void RunWorkload(Bench& bench, const Args& args, Report& rep) {
  const bool traced = !args.trace.empty();
  const std::string recover_db = args.dir + "/recover";
  const std::string serve_db = args.dir + "/serve";
  TimedEnv env(persist::GetPosixEnv());
  Rng check_rng(Mix(args.seed, 3));
  uint64_t stage = NowNs();
  // Traced runs trace everything but the phase's untraced windows.
  Trace::SetEnabled(traced);

  std::vector<double> setup_s;
  auto set_up = [&](const std::string& dir) {
    bench.Drop();
    fs::remove_all(dir);
    const uint64_t t0 = NowNs();
    double checkpoint_s;
    {
      Span span("serve.setup");
      checkpoint_s = bench.Build(&env, dir, rep);
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    return checkpoint_s;
  };

  // The first set-up takes the first kTailBatches batches of the write
  // stream as a closed-loop tail and is then closed and reopened, so
  // recovery always means "set-up snapshot + a fixed WAL tail".
  const double checkpoint_s = set_up(recover_db);
  const double setup_peak_rss_mb = PeakRssMb();
  const double bytes_per_item = bench.Space().first;
  const uint64_t snapshot_bytes = SnapshotBytes(recover_db);
  LogStage("setup", &stage);
  // Where the phase has no writer (docs_search), the tail gives the write
  // metrics. It is then paced, so that they sample seconds of the host's
  // state rather than the one second a closed loop takes.
  WriteStream tail;
  PhaseClock tail_clock{NowNs(), UINT64_MAX, 0, 0};
  RunWriter(bench, env, bench.write_rate() == 0 ? kTailRate : 0,
            args.Scaled(kTailBatches), tail_clock, &tail);
  rep.Add(tail.log.attempted, tail.log.failed);
  bench.Verify(check_rng, rep, "after the tail");
  rep.CheckOk(bench.facade().CloseDurable(), "close after the tail");
  LogStage("tail", &stage);

  std::vector<double> recover_s;
  RecoveryStats first;
  EnvCounters recover_io;
  for (uint32_t r = 0; r < kRecoverRepeats; ++r) {
    bench.Drop();
    RecoveryStats stats;
    const EnvCounters before = env.counters();
    const uint64_t t0 = NowNs();
    persist::Status st;
    {
      Span span("serve.recover");
      st = bench.Reopen(&env, recover_db, &stats);
    }
    recover_s.push_back(Seconds(NowNs() - t0));
    rep.CheckOk(st, "recover");
    rep.Check(stats.snapshot_loaded && stats.replayed_batches > 0,
              "recovery loaded the snapshot and replayed the tail");
    if (r == 0) {
      first = stats;
      recover_io = env.counters() - before;
      bench.Verify(check_rng, rep, "after recovery");
    }
    rep.CheckOk(bench.facade().CloseDurable(), "close recovered");
  }
  LogStage("recover", &stage);

  // The remaining set-ups; the last one serves the phase.
  for (uint32_t r = 1; r < kSetupRepeats; ++r) set_up(serve_db);
  LogStage("setup", &stage);
  Phase ph = RunPhase(bench, env, args);
  LogStage("phase", &stage);

  for (const OpLog& l : ph.readers) rep.Add(l.attempted, l.failed);
  rep.Add(ph.writes.log.attempted, ph.writes.log.failed);
  const auto [phase_bytes_per_item, c0_share] = bench.Space();
  if (traced) bench.Ladder(check_rng, args.Scaled(2000), rep);
  bench.Verify(check_rng, rep, "after the phase");
  rep.CheckOk(bench.facade().CloseDurable(), "close after the phase");
  const double peak_rss_mb = PeakRssMb();
  fs::remove_all(recover_db);
  fs::remove_all(serve_db);
  LogStage("verify", &stage);
  if (traced) {
    bench.Twin(std::max(ph.writes.log.attempted, tail.log.attempted),
               kTwinBudgetS);
    LogStage("twin", &stage);
  }
  // The heap the facade holds after the phase, and the benchmark's own
  // (inputs, model, samples; not the span buffers).
  const double heap_mb = HeapInUseMb();
  bench.Drop();  // before `env`, which the facade's files point to
  const double facade_heap_mb = heap_mb - HeapInUseMb();
  const double own_heap_mb =
      HeapInUseMb() - static_cast<double>(Trace::BufferedBytes()) / (1 << 20);

  // The primary operations are the reads, or the writes on docs_ingest; the
  // write metrics are the phase writer's, or the tail's on docs_search.
  std::vector<OpLog*> primary;
  for (OpLog& l : ph.readers) primary.push_back(&l);
  if (primary.empty()) primary.push_back(&ph.writes.log);
  const WriteStream& writes = bench.write_rate() != 0 ? ph.writes : tail;
  std::vector<uint32_t> op_lat, write_lat = writes.log.lat.values();
  uint64_t n_ops = 0;
  for (const OpLog* l : primary) {
    op_lat.insert(op_lat.end(), l->lat.values().begin(), l->lat.values().end());
    n_ops += l->lat.seen();
  }
  const uint64_t n_writes = writes.log.lat.seen();

  // --- end to end ---
  rep.Metric("setup_s", Median(setup_s), "s", setup_s.size());
  rep.Metric("ops_per_s", PhaseRate(primary, ph.clock), "1/s", n_ops);
  rep.Metric("write_p50_ms", Quantile(write_lat, 0.50) / 1e6, "ms", n_writes);
  rep.Metric("peak_rss_mb", peak_rss_mb, "MB");
  rep.Metric("bytes_per_item", bytes_per_item, "B");

  // --- per layer (counters; trace_report.py derives the span metrics) ---
  const OptimisticStats& g = ph.guard;
  // A read either validates one optimistic attempt or is served locked.
  const double kreads =
      std::max(1.0, static_cast<double>(g.validated + g.locked_reads)) / 1e3;
  // These move with the host too much between runs to carry a bound (see
  // README.md). The closed-loop readers' p50 also carries what ops_per_s
  // does, and on docs_ingest it is write_p50_ms.
  rep.Metric("serve.op_p50_us", Quantile(op_lat, 0.50) / 1e3, "us", n_ops);
  rep.Metric("serve.op_p99_us", Quantile(op_lat, 0.99) / 1e3, "us", n_ops);
  rep.Metric("persist.recover_s", Median(recover_s), "s", recover_s.size());
  rep.Metric("serve.write_p99_ms", Quantile(write_lat, 0.99) / 1e6, "ms",
             n_writes);
  rep.Metric("backend.bytes_per_item", phase_bytes_per_item, "B");
  rep.Metric("backend.uncompressed_share", c0_share, "share");
  // What peak_rss_mb is made of: the set-up peak, the facade's live heap,
  // the benchmark's own; the rest is freed memory the allocator kept.
  rep.Metric("bench.setup_peak_rss_mb", setup_peak_rss_mb, "MB");
  rep.Metric("serve.heap_mb", facade_heap_mb, "MB");
  rep.Metric("bench.own_heap_mb", own_heap_mb, "MB");
  rep.Metric("serve.guard.validated_share",
             static_cast<double>(g.validated) /
                 std::max(1.0, static_cast<double>(g.attempts)),
             "share");
  rep.Metric("serve.guard.retries_per_kread",
             static_cast<double>(g.retries) / kreads, "count");
  rep.Metric("serve.guard.fallbacks_per_kread",
             static_cast<double>(g.fallbacks) / kreads, "count");
  rep.Metric("serve.guard.capture_exhausted",
             static_cast<double>(g.capture_exhausted), "count");
  rep.Metric("serve.guard.retries_exhausted",
             static_cast<double>(g.retries_exhausted), "count");
  rep.Metric("serve.guard.retired_pending_max",
             static_cast<double>(writes.retired_max), "count");
  rep.Metric("persist.fsyncs", static_cast<double>(writes.io.syncs), "count");
  rep.Metric("persist.fsync_busy_share",
             Seconds(writes.io.sync_ns) / Seconds(writes.wall_ns), "share");
  rep.Metric("persist.append_bytes_per_user_byte",
             static_cast<double>(writes.io.append_bytes) /
                 std::max(1.0, static_cast<double>(writes.user_bytes)),
             "ratio");
  rep.Metric("persist.checkpoint_s", checkpoint_s, "s");
  rep.Metric("persist.snapshot_bytes", static_cast<double>(snapshot_bytes),
             "B");
  rep.Metric("persist.recover_read_bytes",
             static_cast<double>(recover_io.read_bytes), "B");
  rep.Metric("persist.replayed_batches",
             static_cast<double>(first.replayed_batches), "count");
  rep.Metric("bench.writer_lag_ms_max",
             static_cast<double>(writes.lag_max_ns) / 1e6, "ms");
  if (traced) {
    const double untraced = WindowRate(primary, ph.clock, 0, 2);
    const double with_trace = WindowRate(primary, ph.clock, 1, 2);
    rep.Metric("bench.trace_overhead_share",
               untraced > 0 ? 1.0 - with_trace / untraced : 0, "share");
  }
}

// --- workloads -------------------------------------------------------------

// docs_search: the paper's core claim, compressed pattern matching, with no
// fan-out, writer or log in the way. The index is larger than a core's L2.
constexpr DocsSpec kDocsSearch{/*shards=*/1, /*corpus_symbols=*/1 << 21,
                               /*doc_len=*/512,
                               /*readers=*/kReaders, /*count_share=*/0.7,
                               /*locate_share=*/0.2, /*write_rate=*/0,
                               /*batch_docs=*/1};
// docs_mixed: fan-out, seqlock contention and per-batch fsync on shards that
// fit in L2, readers and an open-loop writer on the same shards.
constexpr DocsSpec kDocsMixed{/*shards=*/4, /*corpus_symbols=*/1 << 20,
                              /*doc_len=*/512,
                              /*readers=*/kReaders, /*count_share=*/0.8,
                              /*locate_share=*/0.2, /*write_rate=*/40,
                              /*batch_docs=*/4};
// docs_ingest: write capacity with one fsync per acknowledged call; the
// only closed-loop writer, the read path idle.
constexpr DocsSpec kDocsIngest{/*shards=*/1, /*corpus_symbols=*/1 << 19,
                               /*doc_len=*/128,
                               /*readers=*/0, /*count_share=*/0,
                               /*locate_share=*/0, /*write_rate=*/-1,
                               /*batch_docs=*/1};
// graph_churn: Theorem 2 relations under churn with Zipf in-degrees; only
// Reverse fans out.
constexpr GraphSpec kGraphChurn{/*shards=*/4, /*edges=*/1 << 20,
                                /*nodes=*/1 << 16, /*zipf_theta=*/0.99,
                                /*has_edge_share=*/0.4,
                                /*neighbors_share=*/0.4, /*write_rate=*/40,
                                /*batch_events=*/32};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2), val = a.substr(eq + 1);
    if (key == "workload") {
      args->workload = val;
    } else if (key == "seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "duration_s") {
      args->duration_s = std::strtod(val.c_str(), nullptr);
    } else if (key == "trace") {
      args->trace = val;
    } else if (key == "dir") {
      args->dir = val;
    } else if (key == "scale") {
      if (val != "full" && val != "smoke") return false;
      args->smoke = val == "smoke";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->dir.empty() &&
         args->duration_s >= 0.5 && args->duration_s <= 600;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=<docs_search|docs_mixed|"
                 "graph_churn|docs_ingest> --seed=<n> --dir=<scratch dir> "
                 "--duration_s=<s> [--trace=<file>] [--scale=full|smoke]\n");
    return 2;
  }
  fs::create_directories(args.dir);
  Report rep;
  uint64_t stage = NowNs();
  if (args.workload == "graph_churn") {
    GraphBench bench(kGraphChurn, args);
    // The phase and the tail both consume the stream from its start.
    bench.Generate(std::max<uint64_t>(
        std::llround(kGraphChurn.write_rate * args.duration_s),
        args.Scaled(kTailBatches)));
    LogStage("generate", &stage);
    RunWorkload(bench, args, rep);
  } else {
    const DocsSpec* spec = args.workload == "docs_search"   ? &kDocsSearch
                           : args.workload == "docs_mixed"  ? &kDocsMixed
                           : args.workload == "docs_ingest" ? &kDocsIngest
                                                            : nullptr;
    if (spec == nullptr) {
      std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    DocsBench bench(*spec, args);
    bench.Generate();
    LogStage("generate", &stage);
    RunWorkload(bench, args, rep);
  }
  if (!args.trace.empty() && !Trace::WriteFile(args.trace)) {
    rep.Fail("cannot write trace " + args.trace);
  }
  rep.Print(args.workload);
  return rep.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace dyndex

int main(int argc, char** argv) {
  try {
    return dyndex::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: uncaught exception: %s\n", e.what());
    return 3;
  }
}

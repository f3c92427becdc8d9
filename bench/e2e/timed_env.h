// TimedEnv: a persist::Env that forwards every call to another Env (the real
// filesystem, in the benchmark) and counts what the persistence layer asks of
// the device — appends, fsyncs, reads, renames, their bytes and the time
// spent in fsync. The counters are relaxed atomics and always on; per-call
// spans go to the trace only while tracing is enabled (see trace.h).
//
// TimedEnv changes no byte that reaches the wrapped Env: timed_env_check.cc
// checks that a directory written through it is byte-identical to one written
// through the wrapped Env directly.
#ifndef DYNDEX_BENCH_E2E_TIMED_ENV_H_
#define DYNDEX_BENCH_E2E_TIMED_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "persist/env.h"
#include "persist/status.h"
#include "trace.h"

namespace dyndex {
namespace e2e {

/// Device-level counters of one TimedEnv (monotonic; take deltas).
struct EnvCounters {
  uint64_t append_bytes = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t renames = 0;

  EnvCounters operator-(const EnvCounters& o) const {
    return {append_bytes - o.append_bytes, syncs - o.syncs,
            sync_ns - o.sync_ns,           reads - o.reads,
            read_bytes - o.read_bytes,     renames - o.renames};
  }
};

class TimedEnv final : public persist::Env {
 public:
  explicit TimedEnv(persist::Env* base) : base_(base) {}

  EnvCounters counters() const {
    EnvCounters c;
    c.append_bytes = append_bytes_.load(std::memory_order_relaxed);
    c.syncs = syncs_.load(std::memory_order_relaxed);
    c.sync_ns = sync_ns_.load(std::memory_order_relaxed);
    c.reads = reads_.load(std::memory_order_relaxed);
    c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    c.renames = renames_.load(std::memory_order_relaxed);
    return c;
  }

  persist::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<persist::WritableFile>* out) override {
    return Wrap(base_->NewWritableFile(path, out), out);
  }
  persist::Status NewAppendableFile(
      const std::string& path,
      std::unique_ptr<persist::WritableFile>* out) override {
    return Wrap(base_->NewAppendableFile(path, out), out);
  }
  persist::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<persist::RandomAccessFile>* out) override {
    persist::Status st = base_->NewRandomAccessFile(path, out);
    if (st.ok()) *out = std::make_unique<File>(this, std::move(*out));
    return st;
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  persist::Status GetFileSize(const std::string& path,
                              uint64_t* size) override {
    return base_->GetFileSize(path, size);
  }
  persist::Status RenameFile(const std::string& from,
                             const std::string& to) override {
    Span span("persist.rename");
    renames_.fetch_add(1, std::memory_order_relaxed);
    return base_->RenameFile(from, to);
  }
  persist::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  persist::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }

 private:
  class WFile final : public persist::WritableFile {
   public:
    WFile(TimedEnv* env, std::unique_ptr<persist::WritableFile> f)
        : env_(env), f_(std::move(f)) {}
    persist::Status Append(std::string_view data) override {
      Span span("persist.append");
      env_->append_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
      return f_->Append(data);
    }
    persist::Status Sync() override {
      Span span("persist.sync");
      const uint64_t start = NowNs();
      persist::Status st = f_->Sync();
      env_->syncs_.fetch_add(1, std::memory_order_relaxed);
      env_->sync_ns_.fetch_add(NowNs() - start, std::memory_order_relaxed);
      return st;
    }
    persist::Status Close() override { return f_->Close(); }

   private:
    TimedEnv* env_;
    std::unique_ptr<persist::WritableFile> f_;
  };

  class File final : public persist::RandomAccessFile {
   public:
    File(TimedEnv* env, std::unique_ptr<persist::RandomAccessFile> f)
        : env_(env), f_(std::move(f)) {}
    persist::Status Read(uint64_t offset, uint64_t n,
                         std::string* out) const override {
      Span span("persist.read");
      persist::Status st = f_->Read(offset, n, out);
      env_->reads_.fetch_add(1, std::memory_order_relaxed);
      env_->read_bytes_.fetch_add(out->size(), std::memory_order_relaxed);
      return st;
    }

   private:
    TimedEnv* env_;
    std::unique_ptr<persist::RandomAccessFile> f_;
  };

  persist::Status Wrap(persist::Status st,
                       std::unique_ptr<persist::WritableFile>* out) {
    if (st.ok()) *out = std::make_unique<WFile>(this, std::move(*out));
    return st;
  }

  persist::Env* base_;
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> renames_{0};
};

}  // namespace e2e
}  // namespace dyndex

#endif  // DYNDEX_BENCH_E2E_TIMED_ENV_H_

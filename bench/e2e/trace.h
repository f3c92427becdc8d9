// Span recording for the traced run of bench_e2e. A span is one timed call
// across a layer boundary: name, start, end, its own id, the id of the span
// that caused it (0 for none) and the id of the request it serves. Spans are
// recorded by the benchmark around the calls it makes into public functions
// (facade calls, bare backend calls, TimedEnv device calls); nothing inside
// the library is instrumented.
//
// Each thread appends to its own in-memory buffer; the buffers are written out
// once, at exit, as one line per span:  name start_ns end_ns id parent request
// (trace_report.py reads that format). Recording is off unless
// Trace::SetEnabled(true) was called, and a disabled Span costs one relaxed
// load.
#ifndef DYNDEX_BENCH_E2E_TRACE_H_
#define DYNDEX_BENCH_E2E_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dyndex {
namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

class Trace {
 public:
  static void SetEnabled(bool on) {
    enabled_flag().store(on, std::memory_order_relaxed);
  }
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static uint64_t NewId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  static void Record(const SpanRecord& span) { LocalBuffer().push_back(span); }

  /// Writes every thread's spans to `path`. Call only once every recording
  /// thread has been joined or is idle behind a join.
  static bool WriteFile(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(registry().mu);
    for (const auto& buf : registry().buffers) {
      for (const SpanRecord& s : *buf) {
        std::fprintf(f, "%s %llu %llu %llu %llu %llu\n", s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
      }
    }
    return std::fclose(f) == 0;
  }

  /// Heap bytes the span buffers hold. Same calling rule as WriteFile.
  static uint64_t BufferedBytes() {
    std::lock_guard<std::mutex> lock(registry().mu);
    uint64_t total = 0;
    for (const auto& buf : registry().buffers) {
      total += buf->capacity() * sizeof(SpanRecord);
    }
    return total;
  }

  /// The innermost open span and the request of the calling thread.
  struct Context {
    uint64_t span = 0;
    uint64_t request = 0;
  };
  static Context& context() {
    thread_local Context ctx;
    return ctx;
  }

 private:
  struct Registry {
    std::mutex mu;
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
  };
  static Registry& registry() {
    static Registry r;
    return r;
  }
  static std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> on{false};
    return on;
  }
  static std::vector<SpanRecord>& LocalBuffer() {
    thread_local std::vector<SpanRecord>* buf = [] {
      std::lock_guard<std::mutex> lock(registry().mu);
      registry().buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
      return registry().buffers.back().get();
    }();
    return *buf;
  }
};

/// Scoped span: nests under the calling thread's open span and serves its
/// request; a span opened with no enclosing span starts a request of its own.
class Span {
 public:
  explicit Span(const char* name) {
    if (!Trace::enabled()) return;
    Trace::Context& ctx = Trace::context();
    const uint64_t id = Trace::NewId();
    rec_ = {name, 0, 0, id, ctx.span, ctx.span != 0 ? ctx.request : id};
    saved_ = ctx;
    ctx = {rec_.id, rec_.request};
    rec_.start_ns = NowNs();
  }
  ~Span() {
    if (rec_.name == nullptr) return;
    rec_.end_ns = NowNs();
    Trace::Record(rec_);
    Trace::context() = saved_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord rec_{nullptr, 0, 0, 0, 0, 0};
  Trace::Context saved_;  // the enclosing context, restored on close
};

}  // namespace e2e
}  // namespace dyndex

#endif  // DYNDEX_BENCH_E2E_TRACE_H_

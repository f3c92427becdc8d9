// The reusable concurrent-serving core: every shard under the sharded
// facades (documents in sharded_index.h, relations/graphs in
// sharded_relation.h, both on sharded_core.h) is one EpochGuard<Backend>, so
// the read protocol, the writer-priority gate, the epoch, the reclamation
// contract, and the PollPending publication hook exist exactly once.
//
// Concurrency model (documented in README.md):
//
//  * The read hot path is OPTIMISTIC — no lock at all. A sequence word
//    (seq_) is even while the backend is quiescent; the writer bumps it to
//    odd before mutating and back to even after publishing. A reader
//    captures an even sequence, runs the query against the live backend,
//    and validates that the sequence is unchanged afterwards; on mismatch
//    the result is discarded and the attempt retried. After
//    OptimisticPolicy::max_attempts failed attempts (or when a writer storm
//    keeps the sequence odd past spin_limit iterations) the reader falls
//    back to the shared-lock path, so no single Read() ever blocks on the
//    optimistic protocol.
//
//  * Writer-side pacing keeps the lock-free path *useful* under saturating
//    writers, not merely safe. A writer applying back-to-back batches holds
//    the sequence odd for nearly the whole wall clock, so readers would
//    only ever validate in the slivers between exclusive sections and
//    collapse onto the shared-lock fallback. Readers therefore bump a
//    per-slot capture_stalled counter whenever CaptureSnapshot spins on an
//    odd/moving sequence, and Write() consults PacingPolicy before
//    admitting the next batch: when unanswered stalls accrued (the stall
//    debt persists across sections until a window is granted) — or between
//    every pair of sections when stall_threshold is 0, the unconditional
//    write-rate-limiter mode for hosts where readers starve for CPU rather
//    than on the sequence — the writer
//    sleeps until the sequence has been even for min_even_window_us (never
//    more than max_delay_us), with no lock held and writer_waiting_ not
//    yet raised — readers run lock-free for the whole window. The fairness guarantee is two-sided
//    and bounded: stalled readers get an even window of at least
//    min(min_even_window_us, max_delay_us) per admitted batch, and the
//    writer is delayed at most max_delay_us per batch. Batches stay atomic
//    (pacing spaces sections out; it never chunks a Write()), so epoch
//    linearization is untouched.
//
//  * Torn reads are memory-safe, not merely detectable. Before capturing a
//    sequence the reader publishes its snapshot in one of kReaderSlots
//    per-reader slots; everything a writer frees while mutating (replaced
//    sub-collection levels, swapped Transformation-2 structures, cleared
//    dynbits arenas, reallocated container buffers) is parked on a
//    retire-list via util/retire.h instead of freed, tagged with the even
//    sequence that preceded the write. A parked batch is reclaimed only
//    when every active reader slot holds a strictly newer snapshot — no
//    reader that could still be traversing the freed memory remains. The
//    slot-publish / sequence-revalidate handshake pairs seq_cst accesses
//    with the writer's publish / slot-scan (a Dekker-style store-load
//    pattern), so a reader the scan missed is guaranteed to re-capture a
//    post-publication sequence before touching any data.
//
//  * A torn attempt may still read type-stable-but-garbage values, so the
//    backends clamp loop bounds on their read paths and every DYNDEX_CHECK
//    tripped during an optimistic attempt throws TornReadError (see
//    util/check.h) instead of aborting; the attempt catches, discards, and
//    retries. Under TSan/ASan the attempt body additionally holds the
//    shared lock (released before validation), trading the lock-free hot
//    path for instrumentable, race-free execution while keeping the retry,
//    fallback, slot, and reclamation machinery fully exercised.
//
//  * The single writer takes the exclusive side per Write(): it applies the
//    whole batch, publishes any finished background builds (the PollPending
//    hook — Transformation 2's swap step), bumps the epoch, and releases.
//    Locked readers therefore never observe a half-applied batch, and
//    optimistic readers never *validate* one. Maintain() is the same
//    exclusive section without the epoch bump: publishing an internal
//    rebuild leaves the logical state unchanged. A writer-priority gate
//    (writer_waiting_) keeps the fallback path live under glibc's
//    reader-preferring rwlock.
//
// The epoch is the linearization point: every Read() reports the epoch of
// the snapshot it ran against (captured inside the validated window), and
// two reads reporting the same epoch saw the same logical state. The
// differential model-checking harnesses key their per-state expectations on
// exactly this value — the optimistic protocol changes how a snapshot is
// obtained, not what it means.
//
// Backend is any class; the hooks are detected with `requires`:
//  * b.PollPending()     -- called after every Write() body (optional)
//  * b.ForceAllPending() -- reachable through Maintain() by the wrapper
#ifndef DYNDEX_SERVE_EPOCH_GUARD_H_
#define DYNDEX_SERVE_EPOCH_GUARD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/check.h"
#include "util/retire.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

// Under TSan/ASan the optimistic attempt holds the shared lock while the
// query body runs (released before validation): the sanitizers would
// otherwise flag the by-design benign races of a validated-and-discarded
// torn read, drowning real reports. The plain build runs the true lock-free
// path.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DYNDEX_LOCK_ASSISTED_OPTIMISTIC_READS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DYNDEX_LOCK_ASSISTED_OPTIMISTIC_READS 1
#endif
#endif
#ifndef DYNDEX_LOCK_ASSISTED_OPTIMISTIC_READS
#define DYNDEX_LOCK_ASSISTED_OPTIMISTIC_READS 0
#endif

namespace dyndex {

/// A Backend a concurrent facade can serve: readers call const members under
/// Read(), the writer mutates under Write()/Maintain(). Any object type
/// qualifies; background-publication hooks are optional and duck-typed.
template <typename B>
concept EpochServable = std::is_object_v<B> && !std::is_const_v<B>;

/// Knobs of the optimistic read path. Stored packed in one atomic word, so
/// the policy may be changed at any time — even with readers in flight —
/// and every Read() observes one coherent {max_attempts, spin_limit} pair
/// (never a torn mix of old and new fields).
struct OptimisticPolicy {
  /// Optimistic attempts per Read() before falling back to the shared lock.
  /// 0 disables the optimistic path entirely (every read takes the lock) —
  /// the benchmarks use this as the locked baseline.
  uint32_t max_attempts = 3;
  /// Sequence-capture iterations (spins past an odd/moving sequence) before
  /// the reader gives up on the optimistic path for this Read(). Deliberately
  /// impatient: a writer applying batched updates holds the sequence odd for
  /// the whole exclusive section, and a reader is far better off falling
  /// back to the shared lock (where the writer-priority gate alternates
  /// fairly) than yielding through a multi-millisecond rebuild. Saturating
  /// writers therefore drive readers onto the locked path; quiescent and
  /// read-mostly phases stay lock-free.
  uint32_t spin_limit = 64;
};

/// Knobs of reader-progress-aware write pacing. Pacing is enabled when both
/// min_even_window_us and max_delay_us are nonzero; the default is off (a
/// writer admits batches as fast as it produces them, the pre-pacing
/// behavior). Stored packed in one atomic word (fields are clamped to their
/// packed widths on set), so the policy may change at any time without
/// tearing.
struct PacingPolicy {
  /// How long the sequence should have been even before the next Write()
  /// is admitted, counted from the end of the previous exclusive section.
  /// Clamped to ~16.7 s (24 packed bits). 0 disables pacing.
  uint32_t min_even_window_us = 0;
  /// Hard bound on the sleep a single Write() accepts for readers — the
  /// writer-side half of the fairness guarantee. Clamped like the window;
  /// 0 disables pacing.
  uint32_t max_delay_us = 0;
  /// Pace only when at least this many stalled-capture observations are
  /// outstanding (clamped to 65535). With a threshold >= 1 readers that
  /// never stall never slow the writer down. 0 means *unconditional*: the
  /// even window is enforced between every pair of consecutive exclusive
  /// sections regardless of stalls — a pure write-rate limiter for
  /// deployments (and few-core hosts) where readers starve for CPU against
  /// writer-driven work that runs outside the sequence (e.g. Transformation
  /// 2 background builds), which the stall counter cannot see.
  uint32_t stall_threshold = 1;
};

/// Aggregate counters of the optimistic read path (summed over the
/// per-reader slots, so hot readers never share a counter cache line).
struct OptimisticStats {
  uint64_t attempts = 0;   // optimistic attempts started
  uint64_t validated = 0;  // attempts that validated (lock-free successes)
  uint64_t retries = 0;    // attempts discarded by validation or torn reads
  uint64_t fallbacks = 0;  // Reads that gave up and took the shared lock
  /// Fallback causes (capture_exhausted + retries_exhausted == fallbacks):
  /// capture_exhausted means the reader never captured an even sequence
  /// within spin_limit (writer pressure — the starvation signature);
  /// retries_exhausted means captures succeeded but every attempt failed
  /// validation (churn racing the query body).
  uint64_t capture_exhausted = 0;
  uint64_t retries_exhausted = 0;
  /// CaptureSnapshot calls that observed an odd or moving sequence (the
  /// reader-progress signal writer pacing keys on).
  uint64_t capture_stalled = 0;
  uint64_t locked_reads = 0;  // Reads served under the shared lock (any cause)
};

/// Writer-side pacing counters: how often Write() paused for stalled
/// readers, and for how long in total.
struct PacingStats {
  uint64_t waits = 0;    // Write()s that slept to grant readers a window
  uint64_t wait_us = 0;  // total sleep time across those waits
};

/// Shared epoch/sequence/reclamation core. Owns the backend; all access goes
/// through Read / Write / Maintain (or unsynchronized(), caller-quiesced).
template <EpochServable Backend>
class EpochGuard {
 public:
  explicit EpochGuard(std::unique_ptr<Backend> backend)
      : backend_(std::move(backend)) {
    DYNDEX_CHECK(backend_ != nullptr);
  }

  ~EpochGuard() DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
    // No readers may be in flight at destruction; everything still parked
    // is reclaimable. Destruction implies exclusivity, which the analysis
    // cannot know — hence the suppression on touching retired_ lock-free.
    retired_.clear();
  }

  /// Runs fn(const Backend&), optimistically when the policy allows it,
  /// under the shared lock otherwise. If `epoch` is non-null it receives
  /// the epoch of the snapshot fn observed. fn may run more than once (a
  /// discarded attempt is re-executed), so it must be restartable: no side
  /// effects other than through its return value.
  template <typename Fn>
  decltype(auto) Read(uint64_t* epoch, Fn&& fn) const DYNDEX_EXCLUDES(mu_) {
    using R = std::invoke_result_t<Fn&, const Backend&>;
    if constexpr (std::is_void_v<R>) {
      ReadImpl(epoch, [&fn](const Backend& b) {
        fn(b);
        return std::monostate{};
      });
    } else {
      return ReadImpl(epoch, std::forward<Fn>(fn));
    }
  }

  /// Runs fn(Backend&) under the exclusive lock inside an odd sequence
  /// window, then publishes finished background builds (PollPending, when
  /// the backend has it) and bumps the epoch — all before the sequence
  /// returns to even, so the batch is atomic to readers. Everything the
  /// body frees is parked (util/retire.h) and reclaimed only after the
  /// grace period. When the PacingPolicy is enabled and readers reported
  /// stalled captures since the last exclusive section, admission waits
  /// (bounded) for the even window first — before the lock is queued on,
  /// so the sleep never holds a lock or gates locked readers.
  template <typename Fn>
  decltype(auto) Write(Fn&& fn) DYNDEX_EXCLUDES(mu_) {
    PaceBeforeWrite();
    ExclusiveSection section(*this);
    if constexpr (std::is_void_v<decltype(fn(*backend_))>) {
      std::forward<Fn>(fn)(*backend_);
      PollPendingHook();
      epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    } else {
      decltype(auto) result = std::forward<Fn>(fn)(*backend_);
      PollPendingHook();
      epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
      return result;
    }
  }

  /// Runs fn(Backend&) under the exclusive lock *without* bumping the epoch:
  /// internal maintenance (publishing rebuilds, test barriers) leaves the
  /// logical state unchanged and must be invisible to queries. The sequence
  /// still cycles odd/even — a swap mid-read must fail validation even
  /// though the answers are unchanged, because the bytes moved.
  template <typename Fn>
  decltype(auto) Maintain(Fn&& fn) DYNDEX_EXCLUDES(mu_) {
    ExclusiveSection section(*this);
    return std::forward<Fn>(fn)(*backend_);
  }

  /// Number of applied Write() batches so far (plain atomic load — the
  /// cheap snapshot-token poll).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Current sequence word (even = quiescent, odd = writer mutating).
  uint64_t sequence() const { return seq_.load(std::memory_order_acquire); }

  /// May be called at any time, readers in flight or not: the fields are
  /// published as one atomic word, so a concurrent Read() sees either the
  /// old or the new policy, never a torn mix.
  void set_optimistic_policy(const OptimisticPolicy& policy) {
    opt_policy_bits_.store(PackOptimistic(policy), std::memory_order_release);
  }
  OptimisticPolicy optimistic_policy() const {
    return UnpackOptimistic(opt_policy_bits_.load(std::memory_order_acquire));
  }

  /// May be called at any time (same atomic-word discipline). The writer
  /// re-reads the policy before every batch, so pacing can be tuned live.
  void set_pacing_policy(const PacingPolicy& policy) {
    pacing_bits_.store(PackPacing(policy), std::memory_order_release);
  }
  PacingPolicy pacing_policy() const {
    return UnpackPacing(pacing_bits_.load(std::memory_order_acquire));
  }

  OptimisticStats optimistic_stats() const {
    OptimisticStats total;
    for (const ReaderSlot& s : slots_) {
      total.attempts += s.attempts.load(std::memory_order_relaxed);
      total.validated += s.validated.load(std::memory_order_relaxed);
      total.retries += s.retries.load(std::memory_order_relaxed);
      total.fallbacks += s.fallbacks.load(std::memory_order_relaxed);
      total.capture_exhausted +=
          s.capture_exhausted.load(std::memory_order_relaxed);
      total.retries_exhausted +=
          s.retries_exhausted.load(std::memory_order_relaxed);
      total.capture_stalled +=
          s.capture_stalled.load(std::memory_order_relaxed);
    }
    total.locked_reads = locked_reads_.load(std::memory_order_relaxed);
    return total;
  }

  PacingStats pacing_stats() const {
    return {pace_waits_.load(std::memory_order_relaxed),
            pace_wait_us_.load(std::memory_order_relaxed)};
  }

  /// Retired batches not yet reclaimed (their grace period is still open).
  uint64_t retired_pending() const {
    return retired_pending_.load(std::memory_order_acquire);
  }

  /// Takes the exclusive lock and reclaims every batch whose grace period
  /// has closed (writers do this opportunistically; tests and idle loops
  /// can force it).
  void ReclaimRetired() DYNDEX_EXCLUDES(mu_) {
    WriteLock lock(*this);
    DrainRetiredLocked();
  }

  /// Test hook: runs after every optimistic attempt, before validation
  /// (with no lock held), so tests can deterministically interleave a
  /// write into the validation window. Unlike the policies, a std::function
  /// cannot be swapped atomically, so quiescence is *enforced*: the setter
  /// takes the exclusive lock and checks that no reader slot is claimed.
  void set_read_interlope(std::function<void()> hook) DYNDEX_EXCLUDES(mu_) {
    WriteLock lock(*this);
    for (const ReaderSlot& s : slots_) {
      DYNDEX_CHECK(s.snapshot.load(std::memory_order_acquire) ==
                   kIdleSnapshot);
    }
    read_interlope_ = std::move(hook);
  }

  /// The wrapped backend, with no locking. Callers must guarantee quiescence
  /// — a contract the analysis cannot see, hence the suppression on the
  /// unguarded deref.
  Backend& unsynchronized() DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
    return *backend_;
  }
  const Backend& unsynchronized() const DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
    return *backend_;
  }

 private:
  static constexpr std::size_t kReaderSlots = 64;
  /// Slot is unclaimed.
  static constexpr uint64_t kIdleSnapshot = ~uint64_t{0};
  /// Slot is claimed but its owner has not captured a sequence yet, so it
  /// constrains nothing: the capture handshake guarantees the owner's first
  /// data access happens under a re-validated, post-publication sequence.
  static constexpr uint64_t kClaimedSnapshot = ~uint64_t{0} - 1;

  /// One optimistic reader's published snapshot plus its share of the
  /// stats, padded to a cache line so readers never false-share.
  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> snapshot{kIdleSnapshot};
    std::atomic<uint64_t> attempts{0};
    std::atomic<uint64_t> validated{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> fallbacks{0};
    std::atomic<uint64_t> capture_exhausted{0};
    std::atomic<uint64_t> retries_exhausted{0};
    std::atomic<uint64_t> capture_stalled{0};
  };

  /// Shared lock with the writer-priority gate applied. The gate is advisory:
  /// a reader that raced past it still holds a correct shared lock; it only
  /// bounds how long writer_waiting_ can stay hot.
  class DYNDEX_SCOPED_CAPABILITY ReadLock {
   public:
    // The gate-retry loop acquires and conditionally releases inside a loop,
    // which is beyond the analysis (it tracks a single lock state per
    // program point); the ACQUIRE_SHARED interface annotation carries the
    // contract the body is suppressed from proving.
    explicit ReadLock(const EpochGuard& guard)
        DYNDEX_ACQUIRE_SHARED(guard.mu_) DYNDEX_NO_THREAD_SAFETY_ANALYSIS
        : guard_(guard) {
      for (;;) {
        while (guard_.writer_waiting_.load(std::memory_order_acquire) != 0) {
          std::this_thread::yield();
        }
        guard_.mu_.lock_shared();
        if (guard_.writer_waiting_.load(std::memory_order_acquire) == 0) {
          return;
        }
        guard_.mu_.unlock_shared();  // a writer queued meanwhile: let it in
      }
    }
    // Releases the shared mode the retry loop above acquired; the loop is
    // already beyond the analysis, so the matching release is suppressed too.
    ~ReadLock() DYNDEX_RELEASE_GENERIC() DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
      guard_.mu_.unlock_shared();
    }
    ReadLock(const ReadLock&) = delete;
    ReadLock& operator=(const ReadLock&) = delete;

   private:
    const EpochGuard& guard_;
  };

  /// Exclusive lock that raises writer_waiting_ while queueing.
  class DYNDEX_SCOPED_CAPABILITY WriteLock {
   public:
    explicit WriteLock(EpochGuard& guard) DYNDEX_ACQUIRE(guard.mu_)
        : guard_(guard) {
      guard_.writer_waiting_.fetch_add(1, std::memory_order_acq_rel);
      guard_.mu_.lock();
      guard_.writer_waiting_.fetch_sub(1, std::memory_order_acq_rel);
    }
    ~WriteLock() DYNDEX_RELEASE() { guard_.mu_.unlock(); }
    WriteLock(const WriteLock&) = delete;
    WriteLock& operator=(const WriteLock&) = delete;

   private:
    EpochGuard& guard_;
  };

  /// The writer-side discipline for one exclusive section, as a scoped
  /// capability: construction acquires the exclusive lock (via the WriteLock
  /// member, so the writer-priority gate applies) and bumps the sequence
  /// odd; destruction returns the sequence to even (publication), parks the
  /// retire sink's contents tagged with the pre-section sequence, reclaims
  /// whatever batches have aged out, and only then — by member destruction
  /// order — releases the lock.
  class DYNDEX_SCOPED_CAPABILITY ExclusiveSection {
   public:
    // Acquires through the scoped lock_ *member* (not a local), which the
    // analysis does not track — the ACQUIRE interface annotation carries
    // the net effect call sites rely on.
    explicit ExclusiveSection(EpochGuard& guard)
        DYNDEX_ACQUIRE(guard.mu_) DYNDEX_NO_THREAD_SAFETY_ANALYSIS
        : guard_(guard),
          lock_(guard),
          pre_(guard.seq_.load(std::memory_order_relaxed)),
          scope_(std::in_place, &sink_) {
      guard_.seq_.store(pre_ + 1, std::memory_order_seq_cst);
      // Full barrier: the odd store must be visible before any mutation
      // is (the store-store half of the seqlock protocol).
      std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    // The body runs with the lock still held (lock_ is destroyed after it,
    // in reverse member order) and calls the REQUIRES(mu_) park/drain
    // helpers through the stored guard_ reference — an aliasing step
    // (guard_ == the mutex's owner) the intraprocedural analysis cannot
    // make, hence the suppression; the RELEASE interface annotation is what
    // call sites check against.
    ~ExclusiveSection() DYNDEX_RELEASE() DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
      // This destructor is also the writer's unwind path: a throwing batch
      // body lands here with the sequence odd and the exclusive lock held,
      // and everything below must run without throwing (the sequence back
      // to even, the sink parked, the gate released by the lock_ member's
      // own destructor) — an exception escaping mid-unwind would terminate.
      //
      // Uninstall the sink *before* publishing, so reclamation below frees
      // for real instead of re-parking onto the sink being reclaimed.
      scope_.reset();
      std::atomic_thread_fence(std::memory_order_seq_cst);
      guard_.seq_.store(pre_ + 2, std::memory_order_seq_cst);
      // Pacing mark: the even window the next Write() may have to grant
      // starts now.
      guard_.last_section_end_ns_.store(NowNs(), std::memory_order_release);
      if (!sink_.empty()) {
        guard_.ParkSinkLocked(pre_, std::move(sink_));
      }
      guard_.DrainRetiredLocked();
    }

    ExclusiveSection(const ExclusiveSection&) = delete;
    ExclusiveSection& operator=(const ExclusiveSection&) = delete;

   private:
    EpochGuard& guard_;
    WriteLock lock_;  // destroyed last: park/drain above run under the lock
    uint64_t pre_;    // even sequence before this section
    RetireSink sink_;
    std::optional<RetireScope> scope_;
  };

  struct RetiredBatch {
    uint64_t tag;  // even sequence under which the parked objects were live
    RetireSink sink;
  };

  /// Releases the slot on every exit path of ReadImpl.
  struct SlotRelease {
    ReaderSlot* slot;
    ~SlotRelease() {
      if (slot != nullptr) {
        slot->snapshot.store(kIdleSnapshot, std::memory_order_release);
      }
    }
  };

  template <typename Fn>
  std::invoke_result_t<Fn&, const Backend&> ReadImpl(uint64_t* epoch,
                                                     Fn&& fn) const
      DYNDEX_EXCLUDES(mu_) {
    using R = std::invoke_result_t<Fn&, const Backend&>;
    static_assert(!std::is_reference_v<R>,
                  "Read lambdas must return by value");
    const OptimisticPolicy policy = optimistic_policy();
    if (policy.max_attempts > 0) {
      if (ReaderSlot* slot = ClaimSlot()) {
        SlotRelease release{slot};
        bool capture_failed = false;
        for (uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
          uint64_t s;
          if (!CaptureSnapshot(slot, policy.spin_limit, &s)) {
            capture_failed = true;
            break;
          }
          slot->attempts.fetch_add(1, std::memory_order_relaxed);
          // Epoch of snapshot s: epoch_ only moves inside odd windows, so
          // if validation passes this load belongs to the window.
          const uint64_t e = epoch_.load(std::memory_order_acquire);
          std::optional<R> result;
          const bool completed = RunAttempt(fn, &result);
          MaybeRunInterlope();
          if (completed && seq_.load(std::memory_order_seq_cst) == s) {
            slot->validated.fetch_add(1, std::memory_order_relaxed);
            if (epoch != nullptr) *epoch = e;
            return std::move(*result);
          }
          slot->retries.fetch_add(1, std::memory_order_relaxed);
        }
        slot->fallbacks.fetch_add(1, std::memory_order_relaxed);
        // Cause split: never captured an even sequence (writer pressure)
        // vs captured but never validated (churn racing the query body).
        (capture_failed ? slot->capture_exhausted : slot->retries_exhausted)
            .fetch_add(1, std::memory_order_relaxed);
      }
    }
    return LockedRead(epoch, fn);
  }

  /// Test hook dispatch, factored out of ReadImpl so the suppression is as
  /// narrow as possible: read_interlope_ is GUARDED_BY(mu_) for its setter,
  /// but readers call it lock-free by design — safe because the setter
  /// enforces full quiescence (exclusive lock + every slot idle) before
  /// swapping the std::function, a contract the analysis cannot express.
  void MaybeRunInterlope() const DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
    if (read_interlope_) read_interlope_();
  }

  /// One optimistic attempt. Returns false when the attempt was abandoned
  /// (a torn value tripped a CHECK, or any other throw mid-query); the
  /// caller discards and retries. Under sanitizers the body runs with the
  /// shared lock held (released before the caller validates).
  ///
  /// Suppressed: the lock-free path dereferences backend_ with no lock at
  /// all — the seqlock capture/validate protocol in ReadImpl (plus
  /// retire-based reclamation) is what makes that safe, and it is exactly
  /// the class of protocol -Wthread-safety cannot model.
  template <typename Fn, typename R>
  bool RunAttempt(Fn& fn, std::optional<R>* result) const
      DYNDEX_NO_THREAD_SAFETY_ANALYSIS {
#if DYNDEX_LOCK_ASSISTED_OPTIMISTIC_READS
    ReadLock lock(*this);
    result->emplace(fn(static_cast<const Backend&>(*backend_)));
    return true;
#else
    OptimisticReadScope torn_scope;
    try {
      result->emplace(fn(static_cast<const Backend&>(*backend_)));
      return true;
    } catch (const TornReadError&) {
      return false;
    } catch (...) {
      // Anything else thrown mid-attempt (e.g. bad_alloc off a torn length)
      // is treated as torn; a genuine failure recurs on the locked path,
      // where it propagates normally.
      return false;
    }
#endif
  }

  /// Claims a reader slot. The start index is a thread-local *preferred*
  /// slot: hashed from the thread id once per thread (not per read), and
  /// re-pointed at whichever slot the CAS actually won — so a hot reader
  /// claims the same uncontended slot every time and only reprobes after a
  /// genuine conflict, instead of hammering CAS traffic onto a
  /// possibly-colliding hash bucket on every read. nullptr when all slots
  /// are busy (the caller takes the locked path).
  ReaderSlot* ClaimSlot() const {
    static thread_local std::size_t preferred =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        kReaderSlots;
    std::size_t idx = preferred;
    for (std::size_t i = 0; i < kReaderSlots; ++i) {
      ReaderSlot& slot = slots_[idx];
      uint64_t expect = kIdleSnapshot;
      if (slot.snapshot.compare_exchange_strong(expect, kClaimedSnapshot,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
        preferred = idx;
        return &slot;
      }
      idx = (idx + 1) % kReaderSlots;
    }
    return nullptr;
  }

  /// Publishes an even sequence snapshot in `slot` and re-validates that it
  /// is still current — the reader half of the Dekker handshake with the
  /// writer's publish/scan (see file comment). False when the sequence
  /// would not settle within `spin_limit` iterations. A call that observed
  /// an odd or moving sequence at all bumps capture_stalled exactly once —
  /// the reader-progress signal the writer's pacing keys on.
  bool CaptureSnapshot(ReaderSlot* slot, uint32_t spin_limit,
                       uint64_t* out) const {
    bool stalled = false;
    bool captured = false;
    uint64_t s = seq_.load(std::memory_order_acquire);
    for (uint32_t spins = 0; spins <= spin_limit; ++spins) {
      if ((s & 1) != 0) {  // writer mid-mutation: wait for publication
        stalled = true;
        std::this_thread::yield();
        s = seq_.load(std::memory_order_acquire);
        continue;
      }
      slot->snapshot.store(s, std::memory_order_seq_cst);
      const uint64_t s2 = seq_.load(std::memory_order_seq_cst);
      if (s2 == s) {
        *out = s;
        captured = true;
        break;
      }
      stalled = true;
      s = s2;  // a writer published meanwhile: re-capture
    }
    if (!captured) {
      slot->snapshot.store(kClaimedSnapshot, std::memory_order_seq_cst);
    }
    if (stalled) {
      slot->capture_stalled.fetch_add(1, std::memory_order_relaxed);
    }
    return captured;
  }

  template <typename Fn>
  std::invoke_result_t<Fn&, const Backend&> LockedRead(uint64_t* epoch,
                                                       Fn& fn) const
      DYNDEX_EXCLUDES(mu_) {
    locked_reads_.fetch_add(1, std::memory_order_relaxed);
    ReadLock lock(*this);
    if (epoch != nullptr) *epoch = epoch_.load(std::memory_order_relaxed);
    return fn(static_cast<const Backend&>(*backend_));
  }

  // --- policy packing -------------------------------------------------------
  // Both policies live in one atomic uint64 each, so setters never tear
  // against concurrent readers of the policy (satellite of the documented
  // "set while quiesced" contract this replaces).

  static constexpr uint64_t PackOptimistic(const OptimisticPolicy& p) {
    return uint64_t{p.max_attempts} | (uint64_t{p.spin_limit} << 32);
  }
  static constexpr OptimisticPolicy UnpackOptimistic(uint64_t bits) {
    OptimisticPolicy p;
    p.max_attempts = static_cast<uint32_t>(bits);
    p.spin_limit = static_cast<uint32_t>(bits >> 32);
    return p;
  }

  /// Packed PacingPolicy layout: window (24 bits, us) | delay (24 bits, us)
  /// | stall threshold (16 bits). Fields clamp on set.
  static constexpr uint32_t kPaceTimeMax = (1u << 24) - 1;  // ~16.7 s
  static constexpr uint32_t kStallThresholdMax = (1u << 16) - 1;
  static constexpr uint64_t PackPacing(const PacingPolicy& p) {
    const uint64_t window = std::min(p.min_even_window_us, kPaceTimeMax);
    const uint64_t delay = std::min(p.max_delay_us, kPaceTimeMax);
    const uint64_t threshold = std::min(p.stall_threshold, kStallThresholdMax);
    return window | (delay << 24) | (threshold << 48);
  }
  static constexpr PacingPolicy UnpackPacing(uint64_t bits) {
    PacingPolicy p;
    p.min_even_window_us = static_cast<uint32_t>(bits & kPaceTimeMax);
    p.max_delay_us = static_cast<uint32_t>((bits >> 24) & kPaceTimeMax);
    p.stall_threshold = static_cast<uint32_t>(bits >> 48);
    return p;
  }

  // --- writer pacing --------------------------------------------------------

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  uint64_t TotalCaptureStalled() const {
    uint64_t total = 0;
    for (const ReaderSlot& s : slots_) {
      total += s.capture_stalled.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// The reader-progress-aware admission gate: when readers accrued at
  /// least stall_threshold stalled captures that no pace has answered yet
  /// (the stall *debt* — it persists across exclusive sections until a
  /// window is granted, because a reader that stalled three batches ago
  /// and fell back to a queued locked read is still starving), sleep until
  /// the sequence has been even for min_even_window_us (counted from the
  /// last section's end), capped at max_delay_us. Granting the window
  /// consumes the debt. With stall_threshold == 0 the window is enforced
  /// unconditionally between consecutive sections (the write-rate-limiter
  /// mode — see PacingPolicy). Runs with NO lock held and writer_waiting_
  /// not yet raised, so both optimistic and locked readers make progress
  /// for the whole window — a pool worker pacing one shard of a sharded
  /// facade sleeps outside every lock too.
  void PaceBeforeWrite() DYNDEX_EXCLUDES(mu_) {
    const PacingPolicy p = pacing_policy();
    if (p.min_even_window_us == 0 || p.max_delay_us == 0) return;
    const uint64_t end_ns =
        last_section_end_ns_.load(std::memory_order_acquire);
    if (end_ns == 0) return;  // no exclusive section yet: nothing to space
    if (p.stall_threshold > 0) {
      const uint64_t stalled = TotalCaptureStalled();
      const uint64_t mark = stalled_mark_.load(std::memory_order_acquire);
      if (stalled - mark < p.stall_threshold) return;
      // The debt is consumed whether the window is slept for below or
      // already elapsed on its own (the writer was away long enough).
      stalled_mark_.store(stalled, std::memory_order_release);
    }
    const uint64_t deadline_ns =
        end_ns + uint64_t{p.min_even_window_us} * 1000;
    const uint64_t now_ns = NowNs();
    if (now_ns >= deadline_ns) return;
    const uint64_t wait_ns =
        std::min(deadline_ns - now_ns, uint64_t{p.max_delay_us} * 1000);
    std::this_thread::sleep_for(std::chrono::nanoseconds(wait_ns));
    pace_waits_.fetch_add(1, std::memory_order_relaxed);
    pace_wait_us_.fetch_add(wait_ns / 1000, std::memory_order_relaxed);
  }

  /// Parks one section's retire sink without ever throwing — this runs on
  /// the writer's unwind path (~ExclusiveSection), where a bad_alloc from
  /// the vector growth would escalate to std::terminate. The allocation is
  /// attempted separately from the push so a failure never destroys the
  /// sink's contents early; if it fails, fall back to waiting out the grace
  /// period right here (parking exists only to defer that free), then let
  /// the sink destruct. Caller must hold the exclusive lock.
  void ParkSinkLocked(uint64_t tag, RetireSink sink) noexcept
      DYNDEX_REQUIRES(mu_) {
    bool reserved = false;
    try {
      if (retired_.size() == retired_.capacity()) {
        retired_.reserve(std::max<std::size_t>(4, retired_.capacity() * 2));
      }
      reserved = true;
    } catch (...) {
      // Out of memory mid-unwind; take the blocking path below.
    }
    if (reserved) {
      // No-throw: capacity is in hand and RetireSink's moves are noexcept.
      retired_.push_back(RetiredBatch{tag, std::move(sink)});
      retired_pending_.store(retired_.size(), std::memory_order_release);
      return;
    }
    // Freeing is safe once no reader publishes a snapshot <= tag (the same
    // grace rule DrainRetiredLocked applies); reader critical sections are
    // short by construction, so this terminates promptly.
    for (;;) {
      uint64_t min_active = kIdleSnapshot;
      for (const ReaderSlot& slot : slots_) {
        min_active = std::min(min_active,
                              slot.snapshot.load(std::memory_order_seq_cst));
      }
      if (tag < min_active) break;
      std::this_thread::yield();
    }
    // `sink` destructs on return, after its grace period closed.
  }

  /// Reclaims every retired batch whose grace period has closed: a batch
  /// tagged S is freed once no active reader slot publishes a snapshot
  /// <= S. Caller must hold the exclusive lock.
  void DrainRetiredLocked() DYNDEX_REQUIRES(mu_) {
    if (retired_.empty()) {
      retired_pending_.store(0, std::memory_order_release);
      return;
    }
    uint64_t min_active = kIdleSnapshot;
    for (const ReaderSlot& slot : slots_) {
      min_active =
          std::min(min_active, slot.snapshot.load(std::memory_order_seq_cst));
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].tag < min_active) continue;  // grace closed: freed below
      if (kept != i) retired_[kept] = std::move(retired_[i]);
      ++kept;
    }
    retired_.resize(kept);
    retired_pending_.store(kept, std::memory_order_release);
  }

  void PollPendingHook() DYNDEX_REQUIRES(mu_) {
    if constexpr (requires(Backend& b) { b.PollPending(); }) {
      backend_->PollPending();
    }
  }

  mutable SharedMutex mu_;
  std::atomic<uint32_t> writer_waiting_{0};  // queued writers
  /// The pointee is mutated only under mu_ exclusive; optimistic readers
  /// reach it lock-free through the suppressed RunAttempt.
  std::unique_ptr<Backend> backend_ DYNDEX_PT_GUARDED_BY(mu_);
  std::atomic<uint64_t> seq_{0};      // even = quiescent, odd = mutating
  std::atomic<uint64_t> epoch_{0};    // applied Write() batches
  /// Policies, packed (see PackOptimistic / PackPacing): settable at any
  /// time without tearing against in-flight readers/writers.
  std::atomic<uint64_t> opt_policy_bits_{PackOptimistic(OptimisticPolicy{})};
  std::atomic<uint64_t> pacing_bits_{PackPacing(PacingPolicy{})};
  /// Pacing marks: when the last exclusive section ended, and the total
  /// stalled-capture count the last granted window answered (stalls above
  /// the mark are outstanding debt; see PaceBeforeWrite).
  std::atomic<uint64_t> last_section_end_ns_{0};
  std::atomic<uint64_t> stalled_mark_{0};
  std::atomic<uint64_t> pace_waits_{0};
  std::atomic<uint64_t> pace_wait_us_{0};
  mutable std::array<ReaderSlot, kReaderSlots> slots_;
  mutable std::atomic<uint64_t> locked_reads_{0};
  std::vector<RetiredBatch> retired_ DYNDEX_GUARDED_BY(mu_);
  std::atomic<uint64_t> retired_pending_{0};
  /// Test-only; the setter enforces quiescence (exclusive lock + idle
  /// slots), readers invoke it lock-free via MaybeRunInterlope.
  std::function<void()> read_interlope_ DYNDEX_GUARDED_BY(mu_);
};

}  // namespace dyndex

#endif  // DYNDEX_SERVE_EPOCH_GUARD_H_

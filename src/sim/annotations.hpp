#pragma once

// Clang thread-safety capability layer (-Wthread-safety; the CI
// `thread-safety` job builds with clang and -Werror so a missing
// annotation is a build break). Under other compilers every macro
// expands to nothing, so gcc builds are unaffected.
//
// Two usage tiers, matching how this repository shares state:
//
//  1. Cross-thread shared state (the SweepRunner's work pool is the only
//     instance today) uses sim::Mutex / sim::MutexLock with
//     DREDBOX_GUARDED_BY so clang statically proves every access holds
//     the lock, and ThreadSanitizer (DREDBOX_SANITIZE=thread) dynamically
//     proves the same at runtime.
//
//  2. Thread-confined state (a Datacenter and everything it owns —
//     Telemetry registries, the Tracer ring buffer, the EventQueue — is
//     built and driven by exactly one thread; the sweep runner relies on
//     this for its zero-sharing parallelism) declares a sim::ThreadConfined
//     member and calls assert_confined() at its mutation points. In
//     -DDREDBOX_AUDIT=ON builds a cross-thread touch throws
//     ContractViolation naming the object; in normal builds the check
//     compiles away.

#include <atomic>
#include <mutex>
#include <thread>

#include "sim/contract.hpp"

#if defined(__clang__)
#define DREDBOX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DREDBOX_THREAD_ANNOTATION(x)
#endif

/// Declares a type to be a lockable capability ("mutex").
#define DREDBOX_CAPABILITY(x) DREDBOX_THREAD_ANNOTATION(capability(x))
/// RAII type that acquires on construction and releases on destruction.
#define DREDBOX_SCOPED_CAPABILITY DREDBOX_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while `x` is held.
#define DREDBOX_GUARDED_BY(x) DREDBOX_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by `x`.
#define DREDBOX_PT_GUARDED_BY(x) DREDBOX_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function requires the listed capabilities held on entry (caller locks).
#define DREDBOX_REQUIRES(...) DREDBOX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define DREDBOX_REQUIRES_SHARED(...) \
  DREDBOX_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
/// Function acquires the capability and holds it past return.
#define DREDBOX_ACQUIRE(...) DREDBOX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability before returning.
#define DREDBOX_RELEASE(...) DREDBOX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires only when it returns `b`.
#define DREDBOX_TRY_ACQUIRE(b, ...) \
  DREDBOX_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))
/// Function must be called with the listed capabilities NOT held.
#define DREDBOX_EXCLUDES(...) DREDBOX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define DREDBOX_RETURN_CAPABILITY(x) DREDBOX_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: suppress the analysis for one function (say why inline).
#define DREDBOX_NO_THREAD_SAFETY_ANALYSIS \
  DREDBOX_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace dredbox::sim {

/// std::mutex carrying the capability attributes the clang analysis needs
/// (the standard type has none, so analysis cannot see through it). Use
/// with DREDBOX_GUARDED_BY on every member the mutex protects.
class DREDBOX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() DREDBOX_ACQUIRE() { mu_.lock(); }
  void unlock() DREDBOX_RELEASE() { mu_.unlock(); }
  bool try_lock() DREDBOX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over sim::Mutex (std::scoped_lock cannot carry the
/// scoped-capability attributes either).
class DREDBOX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) DREDBOX_ACQUIRE(mu) : mu_{mu} { mu_.lock(); }
  ~MutexLock() DREDBOX_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

#if DREDBOX_AUDIT_ENABLED

/// Dynamic single-owner check for thread-confined objects: the first
/// thread to call assert_confined() becomes the owner; any later call
/// from a different thread throws ContractViolation naming `what`. This
/// is the runtime teeth behind the "one Datacenter per thread" contract
/// that clang's static analysis cannot express (there is no lock to
/// annotate — the whole point is that no lock is needed).
///
/// Copies start unowned (a copied Tracer is a new object, confinable to
/// whichever thread uses it first). Zero-size and checks compiled out in
/// non-audit builds.
class ThreadConfined {
 public:
  ThreadConfined() = default;
  ThreadConfined(const ThreadConfined&) {}
  ThreadConfined& operator=(const ThreadConfined&) { return *this; }

  void assert_confined(const char* what) const {
    const std::size_t self = std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::size_t expected = 0;
    if (owner_.compare_exchange_strong(expected, self, std::memory_order_relaxed)) return;
    DREDBOX_INVARIANT(expected == self,
                      std::string{what} +
                          ": touched from a second thread; this object is thread-confined "
                          "(share it via its own thread, or add real locking)");
  }

 private:
  // Hashed owner thread id; 0 = not yet claimed. (A hash collision or a
  // thread id hashing to 0 weakens, never breaks, the check.)
  mutable std::atomic<std::size_t> owner_{0};
};

#else

class ThreadConfined {
 public:
  void assert_confined(const char*) const {}
};

#endif  // DREDBOX_AUDIT_ENABLED

}  // namespace dredbox::sim

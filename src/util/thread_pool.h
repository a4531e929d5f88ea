// Fixed-size thread pool with deterministic fan-out helpers.
//
// The pool deliberately has no work stealing and no futures: callers hand it
// an index space, workers claim indices from a shared atomic counter, and
// parallel_for returns once every index ran. Determinism in this codebase
// never comes from the schedule (which indices land on which worker is
// racy by nature) — it comes from the caller giving every index its own
// forked RNG stream and merging per-index results in index order. See
// DESIGN.md ("Threading model & determinism").
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace leakydsp::util {

/// Fixed-size pool of worker threads executing indexed task batches.
class ThreadPool {
 public:
  /// `threads == 0` selects hardware_threads(). The calling thread always
  /// participates in parallel_for, so a pool of size 1 spawns no threads
  /// and runs everything inline (the bit-identical "serial path").
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of concurrent executors (workers + the calling thread).
  std::size_t size() const { return size_; }

  /// Runs fn(i) for every i in [0, count), distributed over the pool. The
  /// caller blocks until all indices completed. Exceptions thrown by fn are
  /// captured and the first one rethrown here.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

  /// Installs a process-wide hook that every subsequently spawned worker
  /// runs once on startup, before entering its work loop; the argument is
  /// the worker's index within its pool (1-based — the calling thread is
  /// executor #0 and never runs the hook). Used by the observability layer
  /// to register per-thread metric shards eagerly; pass nullptr to clear.
  /// Pools constructed before the call are unaffected.
  static void set_thread_start_hook(std::function<void(std::size_t)> hook);

  /// Executor index of the calling thread: 1-based worker index for pool
  /// worker threads, 0 for every other thread (including the pool's
  /// caller, which participates in parallel_for as executor #0). The index
  /// identifies the physical thread, so the campaign service can attribute
  /// scheduled blocks to the executor that ran them (eviction/rehydration
  /// tests assert a task really moved between executors). Thread-local:
  /// meaningful inside a parallel_for callback, stable for the thread's
  /// lifetime.
  static std::size_t current_executor();

 private:
  struct Batch;

  static void run_indices(Batch& batch);
  void worker_loop();

  std::size_t size_;
  std::vector<std::thread> workers_;
  // Current batch, guarded by mutex_/cv_ in the implementation.
  struct Impl;
  Impl* impl_;
};

}  // namespace leakydsp::util

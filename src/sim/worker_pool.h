// WorkerPool — a persistent fork-join pool shared by every parallel phase
// in the process: parallel_for's construction-time sweeps (slice routing
// tables, per-source BFS) and the ShardedSimulator's per-epoch shard
// phases. One pool means the two can never oversubscribe the machine by
// each spawning its own thread set (the failure mode of the old ad-hoc
// std::thread-per-call parallel_for).
//
// Model: a pool of size S provides S-way parallelism with S-1 resident
// threads; the calling thread always participates. Two dispatches share
// those threads:
//   - run(n, fn) executes fn(i) for i in [0, n), claimed through a shared
//     atomic counter, so uneven iteration costs balance automatically;
//   - run_pinned(n, fn) executes index i on thread i % S every time (the
//     caller is thread 0), so per-index state — a shard's calendar queue,
//     its nodes, the thread-local packet and queue free lists it feeds —
//     stays in one core's caches from call to call.
// Calls from inside a pool task, or while another thread's call is in
// flight, run inline (no deadlock, no nested fan-out). The first
// exception thrown by an iteration is rethrown on the caller.
//
// Wake and barrier. Each resident thread has its own generation word; a
// call bumps the words of the threads it needs and counts them into a
// done counter, which each one decrements on finishing. A waiting side
// (a worker on its word, the caller on the done counter) pause-spins
// briefly, then yields between checks, and parks on the word
// (std::atomic::wait) once kSpin (30 us) has passed. The epoch loop calls
// run_pinned once per lookahead window — ~56k times in a paper-scale
// websearch run — with a few microseconds of coordinator work between
// calls, so back-to-back calls find the workers still awake: an idle
// 4-shard epoch round trip is ~2 us (BM_EpochBarrier). Workers idle for
// longer than kSpin are parked and cost nothing, so none is left spinning
// once a run returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace opera::sim {

class WorkerPool {
 public:
  // A pool providing `threads`-way parallelism (the caller plus
  // threads - 1 resident workers). threads == 0 sizes from the hardware.
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The process-wide pool: hardware_concurrency()-way, overridable with
  // OPERA_POOL_THREADS (useful to exercise real thread interleaving on
  // small CI boxes, or to pin the pool below the machine size).
  [[nodiscard]] static WorkerPool& shared();

  // Total parallelism (resident workers + the calling thread).
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  // Runs fn(i) for every i in [0, n); returns when all have finished.
  // At most max_workers threads participate (0 = no limit). fn must
  // tolerate concurrent invocation for distinct i.
  template <typename Fn>
  void run(std::size_t n, Fn&& fn, unsigned max_workers = 0) {
    using F = std::remove_reference_t<Fn>;
    dispatch(n, &invoke<F>, const_cast<std::remove_const_t<F>*>(&fn), max_workers,
             /*pinned=*/false);
  }

  // Like run(), but index i always executes on the same thread: i % size(),
  // where the caller is thread 0.
  template <typename Fn>
  void run_pinned(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    dispatch(n, &invoke<F>, const_cast<std::remove_const_t<F>*>(&fn), 0, /*pinned=*/true);
  }

 private:
  using RawFn = void (*)(void* ctx, std::size_t i);

  template <typename F>
  static void invoke(void* ctx, std::size_t i) {
    (*static_cast<F*>(ctx))(i);
  }

  struct Job {
    RawFn fn = nullptr;
    void* ctx = nullptr;
    std::size_t n = 0;
    bool pinned = false;
    std::atomic<std::size_t> next{0};  // work-claim cursor (unpinned)
    std::mutex error_mutex;
    std::exception_ptr error;          // first failure
  };

  // One resident thread. `go` is bumped to hand it the current job; own
  // cache line, so a worker spinning on it shares the line with nobody.
  struct alignas(64) Worker {
    std::atomic<std::uint32_t> go{0};
    std::thread thread;
  };

  void dispatch(std::size_t n, RawFn fn, void* ctx, unsigned max_workers, bool pinned);
  // Runs thread `slot`'s share of `job` (slot 0 = the caller).
  void work_on(Job& job, unsigned slot);
  void worker_loop(Worker& self, unsigned slot);

  std::vector<std::unique_ptr<Worker>> workers_;
  // Published to a worker by the release of its `go` bump; rewritten only
  // once every worker handed the previous job has counted itself done.
  Job* job_ = nullptr;
  bool shutdown_ = false;
  std::atomic<bool> busy_{false};                  // a call is in flight
  alignas(64) std::atomic<std::uint32_t> pending_{0};  // workers still in job_
};

}  // namespace opera::sim

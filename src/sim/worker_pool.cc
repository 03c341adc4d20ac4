#include "sim/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <system_error>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace opera::sim {

namespace {
// Set while a thread executes pool work: nested run() calls (a pool task
// that itself calls parallel_for) execute inline instead of deadlocking on
// the pool they are already occupying.
thread_local bool t_in_pool_task = false;

// How a waiting side waits. A few pause-spins catch a hand-off that is
// already under way; after that it yields between checks, so on an
// oversubscribed machine the thread it waits for can take its core (pure
// pause-spinning made the tier-1 suite at 4 shards under ctest -j4 ~2.7x
// slower); after kSpin in all it parks. kSpin covers the coordinator's
// serial work between two epochs (barrier hook, global events, mailbox
// swap: a few microseconds) with margin, and is short enough that workers
// left waiting after a run returns are asleep before they could disturb
// anything measurable.
constexpr int kPauseSpins = 16;
constexpr auto kSpin = std::chrono::microseconds(30);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

// Returns the first value of `word` that satisfies `ready`: spins for up to
// kSpin, then parks on the word until a notify changes it.
template <typename Ready>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& word, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (int i = 0;; ++i) {
    const std::uint32_t v = word.load(std::memory_order_acquire);
    if (ready(v)) return v;
    if (i < kPauseSpins) {
      cpu_relax();
    } else if (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    } else {
      break;
    }
  }
  for (;;) {
    const std::uint32_t v = word.load(std::memory_order_acquire);
    if (ready(v)) return v;
    word.wait(v, std::memory_order_acquire);
  }
}
}  // namespace

WorkerPool::WorkerPool(unsigned threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw != 0 ? hw : 1;
  }
  workers_.reserve(threads - 1);
  for (unsigned slot = 1; slot < threads; ++slot) {
    auto worker = std::make_unique<Worker>();
    try {
      worker->thread =
          std::thread([this, w = worker.get(), slot] { worker_loop(*w, slot); });
    } catch (const std::system_error&) {
      break;  // thread-resource exhaustion: run with however many spawned
    }
    workers_.push_back(std::move(worker));
  }
}

WorkerPool::~WorkerPool() {
  shutdown_ = true;  // published by the go bumps below
  for (auto& w : workers_) {
    w->go.fetch_add(1);
    w->go.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool* pool = [] {
    unsigned threads = 0;
    // getenv is mt-unsafe only against concurrent setenv; read once,
    // inside a magic-static initializer, before any worker exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("OPERA_POOL_THREADS")) {
      const long v = std::atol(env);
      if (v > 0) threads = static_cast<unsigned>(v);
    }
    return new WorkerPool(threads);  // leaked: lives for the process
  }();
  return *pool;
}

void WorkerPool::dispatch(std::size_t n, RawFn fn, void* ctx, unsigned max_workers,
                          bool pinned) {
  if (n == 0) return;
  // Participants beside the caller: one per index at most, within the cap.
  std::size_t helpers = std::min<std::size_t>(n, size()) - 1;
  if (max_workers != 0) helpers = std::min<std::size_t>(helpers, max_workers - 1);
  if (helpers == 0 || t_in_pool_task || busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
    return;
  }

  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.n = n;
  job.pinned = pinned;
  job_ = &job;
  pending_.store(static_cast<std::uint32_t>(helpers), std::memory_order_relaxed);
  for (std::size_t w = 0; w < helpers; ++w) {
    workers_[w]->go.fetch_add(1);  // releases job_ and pending_ to the worker
    workers_[w]->go.notify_one();
  }

  work_on(job, 0);

  // Every helper touches `job` only before counting itself done, so once
  // pending_ reaches zero the stack object is safe to destroy.
  spin_then_park(pending_, [](std::uint32_t v) { return v == 0; });
  busy_.store(false, std::memory_order_release);
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::work_on(Job& job, unsigned slot) {
  t_in_pool_task = true;
  const auto call = [&job](std::size_t i) {
    try {
      job.fn(job.ctx, i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
  };
  if (job.pinned) {
    for (std::size_t i = slot; i < job.n; i += size()) call(i);
  } else {
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) break;
      call(i);
    }
  }
  t_in_pool_task = false;
}

void WorkerPool::worker_loop(Worker& self, unsigned slot) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = spin_then_park(self.go, [seen](std::uint32_t v) { return v != seen; });
    if (shutdown_) return;
    work_on(*job_, slot);
    if (pending_.fetch_sub(1) == 1) pending_.notify_one();
  }
}

}  // namespace opera::sim

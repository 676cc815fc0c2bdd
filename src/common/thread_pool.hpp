// Fixed-size thread pool with a parallel_for helper.
//
// Used by RandomForest training, the dataset builder (per-(CNN, GPU)
// profiling jobs) and the simulator sweep benches.  Work is pulled from
// a single mutex-guarded deque — at the grain sizes in this project
// (whole trees, whole model profiles) queue contention is irrelevant,
// so the simple design wins per the Core Guidelines (CP: keep
// concurrency structured and boring).
//
// Fork rule: a child made by fork() without exec inherits every pool
// object but none of its worker threads.  A pthread_atfork child
// handler bumps a process-wide fork generation; a pool built in an
// earlier generation reports size() == 1 and its parallel_for runs
// every index on the calling thread, so code that forks (the DCA
// sandbox) never queues work that no thread will run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace gpuperf {

class ThreadPool {
 public:
  /// n_threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count, or 1 for a pool inherited across fork() (see the
  /// fork rule above).  One relaxed atomic load, no syscall: this sits
  /// on the per-model DCA path.
  std::size_t size() const {
    return fork_generation_ ==
                   s_fork_generation_.load(std::memory_order_relaxed)
               ? workers_.size()
               : 1;
  }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Enqueue a task and get a future for its result.  Exceptions escape
  /// through the future, not through wait() — this is the right
  /// submission path when several client threads share one pool and
  /// each must observe only its own failures (wait()'s rethrow is
  /// pool-global).
  template <typename F>
  auto submit_task(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    submit([task] { (*task)(); });
    return result;
  }

  /// Tasks enqueued but not yet picked up by a worker (a load signal
  /// for metrics; racy by nature).
  std::size_t queue_depth() const;

  /// Block until every submitted task has finished.  Exceptions thrown
  /// by tasks are captured; the first one is rethrown here.
  void wait();

  /// Run fn(i) for i in [0, n), distributing across the pool and
  /// blocking until done; the calling thread participates in the work.
  /// Rethrows the first exception thrown by any fn(i).  Error state is
  /// per-invocation (not pool-global), so concurrent parallel_for calls
  /// on a shared pool never observe each other's failures; a nested
  /// call from inside one of this pool's own workers runs inline
  /// instead of deadlocking on its own queue.  In a forked child an
  /// inherited pool runs every fn(i) inline on the calling thread.
  /// submit, submit_task, wait and the destructor are not supported on
  /// an inherited pool: they would wait on threads the child does not
  /// have (forked children leave by _exit).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily created).
  static ThreadPool& shared();

  /// The pool whose worker is executing the calling thread, or nullptr
  /// when called from a non-worker thread.
  static ThreadPool* current();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;

  /// Bumped in every forked child by a pthread_atfork handler.
  inline static std::atomic<std::uint64_t> s_fork_generation_{0};
  /// The generation this pool's workers were started in.
  std::uint64_t fork_generation_;
};

}  // namespace gpuperf

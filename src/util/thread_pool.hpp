#pragma once
/// \file thread_pool.hpp
/// Fixed-size worker pool for the router's tile walk. One pool lives for
/// a whole routing run; each route pass is one for_each call, so workers
/// (and their per-worker ColorSearch scratch) are reused instead of being
/// spawned per pass. Determinism does not depend on the pool: callers
/// only hand it tasks whose effects are order-independent (net computes
/// against a frozen grid, writing distinct result slots) and sequence
/// all shared-state mutation themselves.

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mrtpl::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` (>= 1) workers immediately.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Run fn(item, worker) for every item in [0, count), distributing
  /// items dynamically over the workers; blocks until all complete.
  /// `worker` is a stable index in [0, size()) identifying the executing
  /// thread, for per-worker scratch state. If any invocation throws, the
  /// first captured exception is rethrown here after the batch drains.
  /// Not reentrant: one for_each at a time, from one controlling thread.
  void for_each(std::size_t count, const std::function<void(std::size_t, int)>& fn);

 private:
  void worker_loop(int id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals workers: job posted / stop
  std::condition_variable done_cv_;   ///< signals controller: batch drained
  const std::function<void(std::size_t, int)>* job_ = nullptr;
  std::size_t next_ = 0;       ///< next unclaimed item
  std::size_t count_ = 0;      ///< items in the current job
  std::size_t remaining_ = 0;  ///< items not yet finished
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace mrtpl::util

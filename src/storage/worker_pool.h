// A shared pool of background worker threads with per-client fairness.
//
// One SfcDb owns one WorkerPool; every table it serves registers as a
// client with a `run_one` callback that performs ONE unit of background
// work (one memtable flush or one compaction round) and returns whether
// more work remains. Workers pick armed clients round-robin, so a table
// with a deep backlog cannot starve its neighbors: each pass over the ring
// gives every armed table at most one unit. Every table is owned by an
// SfcDb, so this pool is the table code's only background-execution path.
//
// Guarantees:
//   * at most one worker runs a given client's callback at a time (table
//     background work is internally single-threaded by design);
//   * Notify() is cheap and may be called with arbitrary other locks held
//     (the pool never calls back into a client while holding its own
//     mutex);
//   * Unregister() blocks until the client's callback is not running and
//     never will run again — after it returns the client may be destroyed.

#ifndef ONION_STORAGE_WORKER_POOL_H_
#define ONION_STORAGE_WORKER_POOL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace onion::storage {

class WorkerPool {
 public:
  using ClientId = uint64_t;

  /// Starts `num_threads` workers (clamped to >= 1).
  explicit WorkerPool(size_t num_threads);

  /// Stops and joins all workers. Clients should already be unregistered;
  /// any that are not will simply never run again.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Registers a client. `run_one` performs one unit of work and returns
  /// true when more work may remain (the client is then re-armed
  /// immediately). The client starts un-armed; call Notify() when work
  /// appears.
  ClientId Register(std::function<bool()> run_one);

  /// Blocks until `id`'s callback is not executing, then removes it. After
  /// this returns the callback will never be invoked again. No-op for
  /// unknown ids.
  void Unregister(ClientId id);

  /// Arms `id`: some worker will call its run_one soon. No-op for unknown
  /// or unregistering ids. Safe to call from inside the client's own
  /// run_one.
  void Notify(ClientId id);

  size_t num_threads() const { return threads_.size(); }

  /// Wires latency sinks (null members record nothing; the sinks must
  /// outlive the pool). `wait_us` gets the arm-to-run delay of every unit
  /// of work — how long a table's flush/compaction queued behind other
  /// clients — and `tasks_run` counts completed units. Call before
  /// clients start arming (the owner does it right after construction).
  void SetMetrics(obs::Histogram* wait_us, obs::Counter* tasks_run);

  /// Clients currently armed and waiting for a worker (the queue depth a
  /// gauge exporter samples).
  size_t queue_depth() const;

 private:
  struct Client {
    std::function<bool()> run_one;
    bool armed = false;
    bool running = false;
    bool removed = false;  // Unregister() in progress: stop scheduling
    uint64_t armed_at_us = 0;  // NowMicros() when armed (wait-time start)
  };

  void WorkerMain();

  // Metric sinks (may stay null). Written once by SetMetrics before the
  // clients arm; read by workers under mu_.
  obs::Histogram* wait_us_ ONION_GUARDED_BY(mu_) = nullptr;
  obs::Counter* tasks_run_ ONION_GUARDED_BY(mu_) = nullptr;

  mutable Mutex mu_;
  CondVar work_cv_;  // workers wait for armed clients
  CondVar idle_cv_;  // Unregister waits for !running
  // Client STATE is guarded by mu_; a client's map node is stable, and
  // WorkerMain calls run_one() through its iterator with mu_ released
  // (Unregister blocks on `running`, so the node cannot die mid-call).
  std::map<ClientId, Client> clients_ ONION_GUARDED_BY(mu_);
  ClientId next_id_ ONION_GUARDED_BY(mu_) = 1;
  // Last client id scheduled (the round-robin fairness point).
  ClientId rr_cursor_ ONION_GUARDED_BY(mu_) = 0;
  bool stop_ ONION_GUARDED_BY(mu_) = false;
  // Started in the constructor, joined in the destructor; never touched
  // in between except num_threads()'s size() read — unguarded by design.
  std::vector<std::thread> threads_;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_WORKER_POOL_H_

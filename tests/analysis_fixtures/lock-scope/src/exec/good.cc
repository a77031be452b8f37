// Fixture: small critical sections and condition-variable waits — clean.
#include "common/mutex.h"

namespace indbml {

// Copy under the lock, execute after it dies with the inner block.
void CopyThenExecute(ThreadPool& pool) {
  std::vector<Task> tasks;
  {
    MutexLock lock(mu_);
    tasks = pending_;
  }
  pool.WaitIdle();
}

// Take the handle under the lock, wait for the query after it dies.
void CopyThenWait() {
  std::shared_ptr<QueryHandle> handle;
  {
    MutexLock lock(mu_);
    handle = pending_handle_;
  }
  auto result = handle->Wait();
}

// CondVar::Wait(mu) releases the mutex while sleeping: not a fat section.
void WaitForReady() {
  MutexLock lock(mu_);
  while (!ready_) cv_.Wait(mu_);
}

// Closing an inner block back to the lock's depth keeps it held, but a
// plain counter bump is fine.
void NestedOk() {
  MutexLock lock(mu_);
  if (armed_) { hits_++; }
  total_++;
}

}  // namespace indbml

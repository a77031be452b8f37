// Fixture: heavy or blocking work inside a critical section.
#include "common/mutex.h"

namespace indbml {

void ExecuteUnderLock(ThreadPool& pool) {
  MutexLock lock(mu_);
  pool.WaitIdle();  // ^find
}

void InferUnderStdLock(Session* s) {
  std::lock_guard<std::mutex> lock(raw_mu_);
  RunInference(s);  // ^find
}

void WaitUnderLock(QueryHandle& handle) {
  MutexLock lock(mu_);
  handle.Wait();  // ^find
}

void HandleWaitUnderLock(const std::shared_ptr<QueryHandle>& handle) {
  MutexLock lock(mu_);
  auto result = handle->Wait();  // ^find
}

void ModelBuildUnderLock(SharedModel* model, const Table& table) {
  MutexLock lock(mu_);
  Status status = model->Build(table);  // ^find
}

}  // namespace indbml

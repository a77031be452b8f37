#include "exec/morsel.h"

#include <algorithm>
#include <string>

#include "common/config.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace indbml::exec {

std::vector<storage::PartitionRange> MakeMorsels(
    const storage::Table& table, int64_t morsel_rows,
    const std::vector<ScanPredicate>& predicates) {
  if (morsel_rows <= 0) morsel_rows = kDefaultMorselRows;
  const int64_t n = table.num_rows();
  std::vector<storage::PartitionRange> morsels;
  if (n == 0) return morsels;
  morsels.reserve(static_cast<size_t>((n + morsel_rows - 1) / morsel_rows));

  // Group alignment: never split a run of equal ids across morsels (§4.4's
  // repartitioning-free guarantee depends on id groups staying within one
  // worker's row range).
  const storage::Column* id = nullptr;
  if (!table.unique_id_column().empty()) {
    Result<int> idx = table.ColumnIndex(table.unique_id_column());
    if (idx.ok() &&
        table.column(idx.ValueOrDie()).type() == storage::DataType::kInt64) {
      id = &table.column(idx.ValueOrDie());
    }
  }

  // True if the zone maps reject every block overlapping [begin, end).
  const int64_t rows_per_block = table.rows_per_block();
  // A table that was never finalized has no zone maps; its scans report
  // the error when they open.
  auto pruned = [&](int64_t begin, int64_t end) {
    if (predicates.empty() || !table.finalized()) return false;
    for (int64_t b = begin / rows_per_block; b <= (end - 1) / rows_per_block; ++b) {
      if (!ZoneMapRejectsBlock(table, b, predicates)) return false;
    }
    return true;
  };

  int64_t begin = 0;
  int64_t num_pruned = 0;
  while (begin < n) {
    int64_t end = std::min<int64_t>(begin + morsel_rows, n);
    if (id != nullptr) {
      while (end < n && id->GetInt64(end) == id->GetInt64(end - 1)) ++end;
    }
    if (pruned(begin, end)) {
      ++num_pruned;
    } else {
      morsels.push_back({begin, end});
    }
    begin = end;
  }
  if (num_pruned > 0) {
    static metrics::Counter* const counter =
        metrics::Registry::Global().counter("exec.morsels_pruned");
    counter->Increment(num_pruned);
  }
  return morsels;
}

Status RunMorsel(Operator* root, ExecContext* ctx, const Morsel& morsel,
                 ResultCollector* collector) {
  ctx->morsel_begin = morsel.begin;
  ctx->morsel_end = morsel.end;
  ctx->morsel_index = morsel.index;
  INDBML_RETURN_NOT_OK(root->Rewind(ctx));
  QueryResult batch;
  batch.types = root->output_types();
  INDBML_RETURN_NOT_OK(DrainAppend(root, ctx, &batch));
  collector->Add(morsel.index, std::move(batch.chunks), batch.num_rows);
  return Status::OK();
}

Result<QueryResult> ExecutePipeline(const WorkerPlanFactory& factory,
                                    MorselSource* source, int num_workers,
                                    storage::Catalog* catalog, ThreadPool* pool) {
  if (num_workers <= 0) num_workers = 1;
  ResultCollector collector(source->num_morsels());
  FirstError first_error;

  auto record_error = [&](const Status& s) {
    source->Abort();
    first_error.Record(s);
  };

  auto run_worker = [&](int w) {
    trace::Span span("worker " + std::to_string(w));
    ExecContext ctx;
    ctx.catalog = catalog;
    ctx.worker_id = w;
    Result<OperatorPtr> op = factory(w);
    if (!op.ok()) {
      record_error(op.status());
      return;
    }
    Operator* root = op.ValueOrDie().get();
    // Open unconditionally — even when the source is already dry or aborted
    // — so every worker participates in Open-time barriers (ModelJoin
    // build, paper §5.2).
    Status status = root->Open(&ctx);
    if (status.ok()) {
      collector.SetSchema(root->output_names(), root->output_types());
      Morsel m;
      while (source->Next(&m)) {
        status = RunMorsel(root, &ctx, m, &collector);
        if (!status.ok()) {
          record_error(status);
          break;
        }
      }
    } else {
      record_error(status);
    }
    root->Close(&ctx);
  };

  if (pool != nullptr && num_workers > 1) {
    INDBML_CHECK(num_workers <= pool->num_threads())
        << "pipeline workers exceed pool capacity (Open barriers would "
           "deadlock)";
    pool->ParallelFor(num_workers, run_worker);
  } else {
    for (int w = 0; w < num_workers; ++w) run_worker(w);
  }

  Status first = first_error.Get();
  if (!first.ok()) return first;
  return collector.Assemble();
}

}  // namespace indbml::exec

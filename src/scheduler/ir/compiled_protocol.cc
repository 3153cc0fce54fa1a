#include "scheduler/ir/compiled_protocol.h"

#include <utility>

namespace declsched::scheduler::ir {

CompiledProtocol::CompiledProtocol(ProtocolSpec spec, RequestStore* store,
                                   ProtocolPlan plan)
    : Protocol(std::move(spec)),
      store_(store),
      plan_(std::move(plan)),
      needs_lock_table_(plan_.NeedsLockTable()),
      may_reorder_(plan_.MayReorder()) {}

Result<RequestBatch> CompiledProtocol::Schedule(
    const ScheduleContext& context) const {
  // The plan (and the executor's incremental state) is bound to the store
  // it was compiled against; answering for another store would mix data.
  if (context.store != store_) {
    return Status::InvalidArgument(
        "protocol " + spec_.name +
        ": scheduled against a different store than it was compiled for");
  }
  DS_ASSIGN_OR_RETURN(RequestBatch batch, executor_.Execute(plan_, context));
  // Unordered protocols dispatch by ascending id whatever the text's
  // internal ordering was — same contract as the interpreted backends.
  if (!spec_.ordered && may_reorder_) RankById(&batch);
  return batch;
}

void CompiledProtocol::OnScheduled(const RequestBatch& batch) {
  if (needs_lock_table_) {
    executor_.lock_state().ApplyHistoryAppend(batch, *store_);
  }
}

void CompiledProtocol::OnFinished(const std::vector<txn::TxnId>& txns) {
  if (needs_lock_table_) executor_.lock_state().ApplyFinished(txns, *store_);
}

}  // namespace declsched::scheduler::ir

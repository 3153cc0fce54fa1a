#include "scheduler/ir/compiled_protocol.h"

#include <utility>

namespace declsched::scheduler::ir {

CompiledProtocol::CompiledProtocol(ProtocolSpec spec, RequestStore* store,
                                   ProtocolPlan plan)
    : Protocol(std::move(spec)),
      store_(store),
      plan_(std::move(plan)),
      needs_lock_table_(plan_.NeedsLockTable()),
      may_reorder_(plan_.MayReorder()),
      use_vec_(spec_.ir_executor != "scalar") {}

Result<RequestBatch> CompiledProtocol::Schedule(
    const ScheduleContext& context) const {
  // The plan (and the executor's incremental state) is bound to the store
  // it was compiled against; answering for another store would mix data.
  if (context.store != store_) {
    return Status::InvalidArgument(
        "protocol " + spec_.name +
        ": scheduled against a different store than it was compiled for");
  }
  RequestBatch batch;
  if (use_vec_) {
    DS_ASSIGN_OR_RETURN(batch, vec_.Execute(plan_, context));
  } else {
    DS_ASSIGN_OR_RETURN(batch, scalar_.Execute(plan_, context));
  }
  // Unordered protocols dispatch by ascending id whatever the text's
  // internal ordering was — same contract as the interpreted backends.
  if (!spec_.ordered && may_reorder_) RankById(&batch);
  return batch;
}

void CompiledProtocol::OnAdmitted(const RequestBatch& batch) {
  if (use_vec_) vec_.mirror().OnAdmitted(batch, *store_);
}

void CompiledProtocol::OnScheduled(const RequestBatch& batch) {
  // The columnar mirror tracks every pending mutation; the lock state only
  // matters for plans that consult history locks.
  if (use_vec_) vec_.mirror().OnScheduled(batch, *store_);
  if (needs_lock_table_) {
    if (use_vec_) {
      vec_.lock_state().ApplyHistoryAppend(batch, *store_);
    } else {
      scalar_.lock_state().ApplyHistoryAppend(batch, *store_);
    }
  }
}

void CompiledProtocol::OnFinished(const std::vector<txn::TxnId>& txns) {
  if (needs_lock_table_) {
    if (use_vec_) {
      vec_.lock_state().ApplyFinished(txns, *store_);
    } else {
      scalar_.lock_state().ApplyFinished(txns, *store_);
    }
  }
}

}  // namespace declsched::scheduler::ir

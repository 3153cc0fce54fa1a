// CompiledProtocol: a Protocol backed by a lowered ProtocolPlan.
//
// The compiled form of a SQL, Datalog or stage-pipeline spec — the one
// protocol runtime: the plan executes over the store's typed state, the
// embedded executor's incremental caches ride the scheduler's delta hooks,
// and per-cycle cost is O(pending qualification + delta) — while the
// protocol's semantics remain exactly the declarative text's
// (property-tested against the interpreted engines, which stay available
// behind the "interp:" spec prefix). One executor, PlanExecutor, runs
// every plan.

#ifndef DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_

#include <memory>

#include "scheduler/ir/executor.h"
#include "scheduler/ir/protocol_plan.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler::ir {

class CompiledProtocol : public Protocol {
 public:
  CompiledProtocol(ProtocolSpec spec, RequestStore* store, ProtocolPlan plan);

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override;

  // Delta hooks: keep the executor's incremental lock table in lockstep
  // with the store. Skipped entirely for plans that never consult locks
  // (e.g. FCFS).
  void OnScheduled(const RequestBatch& batch) override;
  void OnFinished(const std::vector<txn::TxnId>& txns) override;

  /// The lowered plan (for ExplainProtocol and tests).
  const ProtocolPlan& plan() const { return plan_; }
  /// The executor's incremental lock state (tests assert O(delta) on its
  /// counters).
  const LockTableState& lock_state() const { return executor_.lock_state(); }

 private:
  RequestStore* store_;
  ProtocolPlan plan_;
  bool needs_lock_table_;
  bool may_reorder_;
  /// Mutable: Schedule() is a read of the store even when it refreshes the
  /// executor's cached state.
  mutable PlanExecutor executor_;
};

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_

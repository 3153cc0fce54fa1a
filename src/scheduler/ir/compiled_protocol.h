// CompiledProtocol: a Protocol backed by a lowered ProtocolPlan.
//
// The compiled form of a SQL, Datalog or stage-pipeline spec — the one
// protocol runtime: the plan executes over the store's typed state, the
// embedded executor's incremental caches ride the scheduler's delta hooks,
// and per-cycle cost is O(pending qualification + delta) — while the
// protocol's semantics remain exactly the declarative text's
// (property-tested against the interpreted engines, which stay available
// behind the "interp:" spec prefix).
//
// Two executors implement the plan. The default is the vectorized columnar
// one (selection-vector kernels over an incrementally maintained SoA
// mirror); the original row-at-a-time executor stays selectable via
// ProtocolSpec::ir_executor = "scalar" as the differential oracle the vec
// path is continuously tested against.

#ifndef DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_

#include <memory>

#include "scheduler/ir/executor.h"
#include "scheduler/ir/protocol_plan.h"
#include "scheduler/ir/vec/vec_executor.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler::ir {

class CompiledProtocol : public Protocol {
 public:
  CompiledProtocol(ProtocolSpec spec, RequestStore* store, ProtocolPlan plan);

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override;

  // Delta hooks: keep the active executor's incremental state (lock table,
  // and for the vec executor the columnar pending mirror) in lockstep with
  // the store. Lock-state forwarding is skipped entirely for plans that
  // never consult locks (e.g. FCFS).
  void OnAdmitted(const RequestBatch& batch) override;
  void OnScheduled(const RequestBatch& batch) override;
  void OnFinished(const std::vector<txn::TxnId>& txns) override;

  /// The lowered plan (for ExplainProtocol and tests).
  const ProtocolPlan& plan() const { return plan_; }
  /// True when the plan runs on the vectorized executor.
  bool uses_vec() const { return use_vec_; }
  /// The incremental lock state of whichever executor is active (tests
  /// assert O(delta) on its counters).
  const LockTableState& lock_state() const {
    return use_vec_ ? vec_.lock_state() : scalar_.lock_state();
  }
  /// The vec executor's columnar mirror; null when running scalar.
  const vec::ColumnarMirror* mirror() const {
    return use_vec_ ? &vec_.mirror() : nullptr;
  }

 private:
  RequestStore* store_;
  ProtocolPlan plan_;
  bool needs_lock_table_;
  bool may_reorder_;
  bool use_vec_;
  /// Mutable: Schedule() is a read of the store even when it refreshes the
  /// executor's cached state. Only the executor selected by the spec is
  /// ever touched; the idle one stays an empty shell.
  mutable PlanExecutor scalar_;
  mutable vec::VecPlanExecutor vec_;
};

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_COMPILED_PROTOCOL_H_

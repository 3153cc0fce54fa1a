// LowerPipelineSpec: composed-pipeline front-end of the protocol IR.
//
// A composed spec's text is a '|'-separated pipeline of `kind:arg` stages,
// evaluated left to right starting from the full pending set:
//
//   filter:ss2pl | rank:edf | cap:16
//
// Each stage lowers to the IR operator(s) the SQL and Datalog front-ends
// emit for the same idiom, so a pipeline and its declarative twin compile
// to the same plan:
//
//   filter:ss2pl / filter:read-committed   LockAntiJoin (Listing 1 rules /
//                                          the read-committed subset)
//   filter:none                            nothing (every request qualifies)
//   rank:fcfs / rank:priority / rank:edf   Rank [id] / [priority, id] /
//                                          [deadline=0?, deadline, id]
//   cap:N                                  Limit N
//   fair_rank:vtime / fair_rank:round      LEFT TenantJoin + Rank
//                                          [tenants.vtime, id] /
//                                          [tenants.round, tenant, id];
//                                          a tenant without a tenants row
//                                          ranks at vtime/round 0
//   tenant_cap                             ThrottleAntiJoin
//   starvation_boost:WAIT_US               StarvationBoost (no SQL or
//                                          Datalog form)
//
// Every filter judges pending-pending conflicts against the full pending
// set, so a cap or rank placed before it never weakens age ordering. A
// pipeline holding a rank, fair_rank or starvation_boost stage dispatches
// in its own order (the plan is `ordered`); otherwise by id.

#ifndef DECLSCHED_SCHEDULER_IR_LOWER_PIPELINE_H_
#define DECLSCHED_SCHEDULER_IR_LOWER_PIPELINE_H_

#include "common/result.h"
#include "scheduler/ir/protocol_plan.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler::ir {

/// Parses, lowers and optimizes the stage pipeline in `spec.text`.
/// BindError on an empty pipeline, an unknown stage kind or a bad stage
/// argument. The one-call form the composed backend and ExplainProtocol()
/// use.
Result<ProtocolPlan> LowerPipelineSpec(const ProtocolSpec& spec);

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_LOWER_PIPELINE_H_

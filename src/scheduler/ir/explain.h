// ExplainProtocol: render what a protocol spec compiles to.
//
// For SQL/Datalog specs that lower, and for every composed stage pipeline,
// the output is the optimized IR operator tree (the compiled artifact the
// executor runs); for SQL/Datalog specs that fall back to the interpreted
// engines, the SQL physical plan (sql::ExplainPlan) or the validated
// Datalog program, with the lowering error that forced the fallback; for
// passthrough, just the header.

#ifndef DECLSCHED_SCHEDULER_IR_EXPLAIN_H_
#define DECLSCHED_SCHEDULER_IR_EXPLAIN_H_

#include <string>

#include "common/result.h"
#include "scheduler/ir/protocol_plan.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler::ir {

/// Multi-line rendering of a lowered plan, root first (the sql/explain
/// indentation style). Example:
///
///   Rank [priority, id]
///     LockAntiJoin [wlock->all, rlock->w, pend:w->all, pend:any->w]
///       ScanPending
std::string ExplainProtocolPlan(const ProtocolPlan& plan);

/// Compiles `spec` the way its backend would and renders the result.
/// `store` supplies the catalog the SQL planner binds against.
Result<std::string> ExplainProtocol(const ProtocolSpec& spec,
                                    RequestStore* store);

}  // namespace declsched::scheduler::ir

#endif  // DECLSCHED_SCHEDULER_IR_EXPLAIN_H_

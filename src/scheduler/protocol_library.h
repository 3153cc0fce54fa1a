// Built-in protocol library across every backend.
//
// Covers the paper's three goals (Section 3.1): (a) traditional consistency
// protocols — SS2PL in SQL (Listing 1, verbatim), in Datalog, and as a stage
// pipeline (the policy of the paper's Figure 2 hand-coded scheduler, kept
// under its `*-native` name); (b) SLA scheduling —
// priority tiers and earliest-deadline-first; (c) application-specific
// consistency — a relaxed read-committed protocol that never blocks readers,
// plus composed stage pipelines that mix consistency, ranking, and admission
// control without new protocol text. A passthrough spec implements the
// paper's non-scheduling mode.

#ifndef DECLSCHED_SCHEDULER_PROTOCOL_LIBRARY_H_
#define DECLSCHED_SCHEDULER_PROTOCOL_LIBRARY_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler {

/// Strong 2PL as SQL — the paper's Listing 1, verbatim modulo whitespace.
ProtocolSpec Ss2plSql();
/// Strong 2PL as Datalog (the Section 5 "more succinct language").
ProtocolSpec Ss2plDatalog();
/// Strong 2PL as the pipeline `filter:ss2pl | rank:fcfs` (Figure 2's policy).
ProtocolSpec Ss2plNative();
/// First-come-first-served without consistency guarantees: every pending
/// request qualifies, in arrival order.
ProtocolSpec FcfsSql();
/// FCFS as the pipeline `filter:none | rank:fcfs`.
ProtocolSpec FcfsNative();
/// SS2PL-safe requests dispatched premium-first (priority column, then id).
ProtocolSpec SlaPrioritySql();
/// The same SLA policy as the pipeline `filter:ss2pl | rank:priority`.
ProtocolSpec SlaPriorityNative();
/// SS2PL-safe requests dispatched by earliest deadline (0 = none, last).
ProtocolSpec EdfSql();
/// The same EDF policy as the pipeline `filter:ss2pl | rank:edf`.
ProtocolSpec EdfNative();
/// Relaxed consistency: readers never block; writers respect write locks
/// (no read locks at all) — lost-update-free but not serializable.
ProtocolSpec ReadCommittedSql();
/// The same relaxed protocol in Datalog.
ProtocolSpec ReadCommittedDatalog();
/// The same relaxed protocol as `filter:read-committed | rank:fcfs`.
ProtocolSpec ReadCommittedNative();
/// Non-scheduling passthrough (paper Section 3.3 last paragraph).
ProtocolSpec Passthrough();

// --- multi-tenant fairness & QoS (the tenants relation; see
// --- docs/PROTOCOLS.md for all four formulations side by side) ---

/// Weighted fair queueing: SS2PL-safe requests ranked by the submitting
/// tenant's virtual time (ascending, ties by id). A tenant's vtime grows
/// with the service it receives divided by its weight, so light tenants
/// outrank a heavy aggressor.
ProtocolSpec WfqSql();
ProtocolSpec WfqDatalog();
ProtocolSpec WfqNative();
/// Deficit-round fairness: like wfq but ranked by whole service rounds
/// (coarser), round-robin by tenant within a round.
ProtocolSpec DrrSql();
ProtocolSpec DrrDatalog();
ProtocolSpec DrrNative();
/// Tenant throttling: SS2PL-safe requests minus those of throttled
/// tenants (in-flight cap reached, or token bucket empty); dispatch by id.
ProtocolSpec TenantCapSql();
ProtocolSpec TenantCapDatalog();
ProtocolSpec TenantCapNative();
/// The same three policies as composed stage pipelines. The `*Native()`
/// specs above carry the same pipelines under the names of the retired
/// hand-coded backend. In a pipeline, a request whose tenant has no
/// tenants row ranks at vtime/round 0 (SQL's inner join drops it, the
/// Datalog rank relation sorts it last).
ProtocolSpec ComposedWfq();
ProtocolSpec ComposedDrr();
ProtocolSpec ComposedTenantCap();

/// Composed pipeline: read-committed filter, EDF ranking, and (if cap > 0)
/// an admission cap — the "relaxed consistency + deadline scheduling +
/// admission control" scenario mix, no new SQL required.
ProtocolSpec ComposedReadCommittedEdf(int64_t cap = 0);
/// Composed pipeline: SS2PL filter, priority ranking, optional admission
/// cap — serializable SLA scheduling out of reusable stages.
ProtocolSpec ComposedSs2plPriority(int64_t cap = 0);

/// The interpreted-engine variant of a SQL or Datalog spec: same text and
/// semantics, but evaluated by the interpreter instead of being lowered to
/// the protocol IR ("interp:" text prefix; name prefixed the same way).
/// The differential oracle the equivalence tests and benches run compiled
/// variants against. Specs of other backends are returned unchanged.
ProtocolSpec InterpretedVariant(ProtocolSpec spec);

/// Name -> spec registry of every built-in; custom specs can be added.
class ProtocolRegistry {
 public:
  /// A registry pre-loaded with all built-ins above.
  static ProtocolRegistry BuiltIns();

  Status Register(ProtocolSpec spec);
  Result<ProtocolSpec> Get(const std::string& name) const;
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, ProtocolSpec> specs_;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_PROTOCOL_LIBRARY_H_

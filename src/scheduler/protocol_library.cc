#include "scheduler/protocol_library.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace declsched::scheduler {

namespace {

/// Paper Listing 1. The CTE block is shared by the SS2PL-based protocols;
/// only the final SELECT differs (plain, priority-ordered, deadline-ordered).
constexpr const char* kSs2plCtes = R"sql(
WITH RLockedObjects AS
  (SELECT a.object, a.ta, a.Operation
   FROM history a
   WHERE NOT EXISTS
     (SELECT * FROM history b
      WHERE (a.ta = b.ta AND a.object = b.object AND b.operation = 'w')
         OR (a.ta = b.ta AND (b.operation = 'a' OR b.operation = 'c')))),
WLockedObjects AS
  (SELECT DISTINCT a.object, a.ta, a.operation
   FROM history a LEFT JOIN
     (SELECT ta FROM history
      WHERE operation = 'a' OR operation = 'c') AS finishedTAs
     ON a.ta = finishedTAs.ta
   WHERE a.operation = 'w' AND finishedTAs.ta IS Null),
OperationsOnWLockedObjects AS
  (SELECT r.ta, r.intrata
   FROM requests r, WLockedObjects wlo
   WHERE r.object = wlo.object AND r.ta <> wlo.ta),
OperationsOnRLockedObjects AS
  (SELECT wOpsOnRLObj.ta, wOpsOnRLObj.intrata
   FROM requests wOpsOnRLObj, RLockedObjects rl
   WHERE wOpsOnRLObj.object = rl.object
     AND wOpsOnRLObj.operation = 'w'
     AND wOpsOnRLObj.ta <> rl.ta),
OpsOnSameObjAsPriorSelectOps AS
  (SELECT r2.ta, r2.intrata
   FROM requests r2, requests r1
   WHERE r2.object = r1.object AND r2.ta > r1.ta
     AND ((r1.operation = 'w') OR (r2.operation = 'w'))),
QualifiedSS2PLOps AS
  ((SELECT ta, intrata FROM requests)
   EXCEPT (
     (SELECT * FROM OperationsOnWLockedObjects)
     UNION ALL
     (SELECT * FROM OpsOnSameObjAsPriorSelectOps)
     UNION ALL
     (SELECT * FROM OperationsOnRLockedObjects)))
)sql";

constexpr const char* kSs2plFinal = R"sql(
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
)sql";

constexpr const char* kSlaFinal = R"sql(
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
ORDER BY r2.priority, r2.id
)sql";

constexpr const char* kEdfFinal = R"sql(
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
ORDER BY CASE WHEN r2.deadline = 0 THEN 1 ELSE 0 END, r2.deadline, r2.id
)sql";

constexpr const char* kReadCommittedSql = R"sql(
WITH WLockedObjects AS
  (SELECT DISTINCT a.object, a.ta
   FROM history a LEFT JOIN
     (SELECT ta FROM history
      WHERE operation = 'a' OR operation = 'c') AS finishedTAs
     ON a.ta = finishedTAs.ta
   WHERE a.operation = 'w' AND finishedTAs.ta IS Null),
BlockedOps AS
  ((SELECT r.ta, r.intrata
    FROM requests r, WLockedObjects wlo
    WHERE r.operation = 'w' AND r.object = wlo.object AND r.ta <> wlo.ta)
   UNION ALL
   (SELECT r2.ta, r2.intrata
    FROM requests r2, requests r1
    WHERE r2.object = r1.object AND r2.ta > r1.ta
      AND r1.operation = 'w' AND r2.operation = 'w')),
QualifiedOps AS
  ((SELECT ta, intrata FROM requests)
   EXCEPT (SELECT * FROM BlockedOps))
SELECT r2.*
FROM requests r2, QualifiedOps q
WHERE r2.ta = q.ta AND r2.intrata = q.intrata
)sql";

/// The SS2PL locking rules, shared by the plain Datalog protocol and the
/// tenant-fairness protocols (which differ only in the head they derive) —
/// the Datalog analogue of the shared kSs2plCtes block above.
constexpr const char* kSs2plDatalogRules = R"(
% Strong two-phase locking over the request/history relations.
finished(Ta) :- hist(_, Ta, _, "c", _).
finished(Ta) :- hist(_, Ta, _, "a", _).
wrotepair(Obj, Ta) :- hist(_, Ta, _, "w", Obj).
wlock(Obj, Ta) :- hist(_, Ta, _, "w", Obj), !finished(Ta).
rlock(Obj, Ta) :- hist(_, Ta, _, "r", Obj), !finished(Ta), !wrotepair(Obj, Ta).
blocked(Ta, In) :- req(_, Ta, In, _, Obj), wlock(Obj, T2), Ta != T2.
blocked(Ta, In) :- req(_, Ta, In, "w", Obj), rlock(Obj, T2), Ta != T2.
blocked(T2, In2) :- req(_, T2, In2, "w", Obj), req(_, T1, _, _, Obj), T2 > T1.
blocked(T2, In2) :- req(_, T2, In2, _, Obj), req(_, T1, _, "w", Obj), T2 > T1.
)";

constexpr const char* kSs2plQualifiedHead =
    "qualified(Id, Ta, In, Op, Obj) :- req(Id, Ta, In, Op, Obj), "
    "!blocked(Ta, In).\n";

/// The same qualification derived as ss2plok, for the tenant rules that
/// build `qualified` on top of it.
constexpr const char* kSs2plOkHead =
    "ss2plok(Id, Ta, In, Op, Obj) :- req(Id, Ta, In, Op, Obj), "
    "!blocked(Ta, In).\n";

constexpr const char* kReadCommittedDatalog = R"(
% Relaxed consistency: readers never block, writers respect write locks.
finished(Ta) :- hist(_, Ta, _, "c", _).
finished(Ta) :- hist(_, Ta, _, "a", _).
wlock(Obj, Ta) :- hist(_, Ta, _, "w", Obj), !finished(Ta).
blocked(Ta, In) :- req(_, Ta, In, "w", Obj), wlock(Obj, T2), Ta != T2.
blocked(T2, In2) :- req(_, T2, In2, "w", Obj), req(_, T1, _, "w", Obj), T2 > T1.
qualified(Id, Ta, In, Op, Obj) :- req(Id, Ta, In, Op, Obj), !blocked(Ta, In).
)";

// --- multi-tenant fairness (the `tenants` relation / `tenantacct` EDB) ---

constexpr const char* kWfqFinal = R"sql(
SELECT r2.*, t.vtime
FROM requests r2, QualifiedSS2PLOps ss2PL, tenants t
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
  AND r2.tenant = t.tenant
ORDER BY t.vtime, r2.id
)sql";

constexpr const char* kDrrFinal = R"sql(
SELECT r2.*, t.round
FROM requests r2, QualifiedSS2PLOps ss2PL, tenants t
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
  AND r2.tenant = t.tenant
ORDER BY t.round, r2.tenant, r2.id
)sql";

constexpr const char* kTenantCapFinal = R"sql(
SELECT r2.*
FROM requests r2, QualifiedSS2PLOps ss2PL
WHERE r2.ta = ss2PL.ta AND r2.intrata = ss2PL.intrata
  AND r2.tenant NOT IN
    (SELECT tenant FROM tenants
     WHERE (cap > 0 AND inflight >= cap) OR (rate > 0 AND tokens <= 0))
)sql";

constexpr const char* kWfqDatalogTail = R"(
% wfq: every SS2PL-safe request qualifies; dispatch order is the rank
% relation — the submitting tenant's virtual time (then id).
qualified(Id, Ta, In, Op, Obj) :- ss2plok(Id, Ta, In, Op, Obj).
rankkey(Id, V) :- qualified(Id, _, _, _, _), reqtenant(Id, T),
                  tenantacct(T, _, V, _, _, _, _, _).
)";

constexpr const char* kDrrDatalogTail = R"(
% drr: rank by the tenant's consumed service rounds, round-robin by
% tenant within a round (then id).
qualified(Id, Ta, In, Op, Obj) :- ss2plok(Id, Ta, In, Op, Obj).
rankkey(Id, R, T) :- qualified(Id, _, _, _, _), reqtenant(Id, T),
                     tenantacct(T, _, _, R, _, _, _, _).
)";

constexpr const char* kTenantCapDatalogTail = R"(
% tenant-cap: drop SS2PL-safe requests of throttled tenants.
throttled(T) :- tenantacct(T, _, _, _, _, _, Cap, Inflight),
                Cap > 0, Inflight >= Cap.
throttled(T) :- tenantacct(T, _, _, _, Tokens, Rate, _, _),
                Rate > 0, Tokens <= 0.
qualified(Id, Ta, In, Op, Obj) :- ss2plok(Id, Ta, In, Op, Obj),
                                  reqtenant(Id, T), !throttled(T).
)";

}  // namespace

ProtocolSpec Ss2plSql() {
  ProtocolSpec spec;
  spec.name = "ss2pl-sql";
  spec.description = "Strong 2PL as SQL (paper Listing 1); serializable";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kSs2plFinal;
  return spec;
}

ProtocolSpec Ss2plDatalog() {
  ProtocolSpec spec;
  spec.name = "ss2pl-datalog";
  spec.description = "Strong 2PL as Datalog rules; serializable";
  spec.backend = "datalog";
  spec.text = std::string(kSs2plDatalogRules) + kSs2plQualifiedHead;
  return spec;
}

ProtocolSpec FcfsSql() {
  ProtocolSpec spec;
  spec.name = "fcfs-sql";
  spec.description = "FCFS, no consistency control (every request qualifies)";
  spec.backend = "sql";
  spec.text = "SELECT * FROM requests ORDER BY id";
  spec.ordered = true;
  return spec;
}

ProtocolSpec SlaPrioritySql() {
  ProtocolSpec spec;
  spec.name = "sla-priority-sql";
  spec.description = "SS2PL-safe, premium-tier requests dispatched first";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kSlaFinal;
  spec.ordered = true;
  return spec;
}

ProtocolSpec EdfSql() {
  ProtocolSpec spec;
  spec.name = "edf-sql";
  spec.description = "SS2PL-safe, earliest-deadline-first dispatch";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kEdfFinal;
  spec.ordered = true;
  return spec;
}

ProtocolSpec ReadCommittedSql() {
  ProtocolSpec spec;
  spec.name = "read-committed-sql";
  spec.description = "Relaxed: readers never block; write locks only";
  spec.backend = "sql";
  spec.text = kReadCommittedSql;
  return spec;
}

ProtocolSpec ReadCommittedDatalog() {
  ProtocolSpec spec;
  spec.name = "read-committed-datalog";
  spec.description = "Relaxed read-committed as Datalog rules";
  spec.backend = "datalog";
  spec.text = kReadCommittedDatalog;
  return spec;
}

ProtocolSpec Passthrough() {
  ProtocolSpec spec;
  spec.name = "passthrough";
  spec.description = "Non-scheduling mode: forward everything immediately";
  spec.backend = "passthrough";
  return spec;
}

namespace {

/// The `*-native` names: the policies Figure 2's hand-coded scheduler
/// implemented, now spelled as stage pipelines and compiled like every
/// other spec.
ProtocolSpec PipelineSpec(const char* name, const char* pipeline,
                          const char* description) {
  ProtocolSpec spec;
  spec.name = name;
  spec.description = description;
  spec.backend = "composed";
  spec.text = pipeline;
  return spec;
}

}  // namespace

ProtocolSpec Ss2plNative() {
  return PipelineSpec("ss2pl-native", "filter:ss2pl | rank:fcfs",
                      "Strong 2PL as a stage pipeline (Figure 2's policy)");
}

ProtocolSpec FcfsNative() {
  return PipelineSpec("fcfs-native", "filter:none | rank:fcfs",
                      "FCFS as a stage pipeline, no consistency control");
}

ProtocolSpec SlaPriorityNative() {
  return PipelineSpec("sla-priority-native", "filter:ss2pl | rank:priority",
                      "SS2PL-safe, premium-first dispatch, as a pipeline");
}

ProtocolSpec EdfNative() {
  return PipelineSpec("edf-native", "filter:ss2pl | rank:edf",
                      "SS2PL-safe, earliest-deadline-first, as a pipeline");
}

ProtocolSpec ReadCommittedNative() {
  return PipelineSpec("read-committed-native",
                      "filter:read-committed | rank:fcfs",
                      "Relaxed read-committed as a stage pipeline");
}

ProtocolSpec WfqNative() {
  return PipelineSpec("wfq-native", "filter:ss2pl | fair_rank:vtime",
                      "Weighted-fair tenant dispatch as a stage pipeline");
}

ProtocolSpec DrrNative() {
  return PipelineSpec("drr-native", "filter:ss2pl | fair_rank:round",
                      "Deficit-round fair tenant dispatch as a pipeline");
}

ProtocolSpec TenantCapNative() {
  return PipelineSpec("tenant-cap-native", "filter:ss2pl | tenant_cap",
                      "Tenant throttling (cap/tokens) as a stage pipeline");
}

ProtocolSpec ComposedWfq() {
  ProtocolSpec spec;
  spec.name = "composed-wfq";
  spec.description = "Composed: SS2PL filter, weighted-fair tenant ranking";
  spec.backend = "composed";
  spec.text = "filter:ss2pl | fair_rank:vtime";
  return spec;
}

ProtocolSpec ComposedDrr() {
  ProtocolSpec spec;
  spec.name = "composed-drr";
  spec.description = "Composed: SS2PL filter, deficit-round tenant ranking";
  spec.backend = "composed";
  spec.text = "filter:ss2pl | fair_rank:round";
  return spec;
}

ProtocolSpec ComposedTenantCap() {
  ProtocolSpec spec;
  spec.name = "composed-tenant-cap";
  spec.description = "Composed: SS2PL filter, throttled-tenant drop";
  spec.backend = "composed";
  spec.text = "filter:ss2pl | tenant_cap";
  return spec;
}

ProtocolSpec WfqSql() {
  ProtocolSpec spec;
  spec.name = "wfq-sql";
  spec.description = "SS2PL-safe, weighted-fair dispatch by tenant vtime";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kWfqFinal;
  spec.ordered = true;
  return spec;
}

ProtocolSpec DrrSql() {
  ProtocolSpec spec;
  spec.name = "drr-sql";
  spec.description = "SS2PL-safe, deficit-round fair dispatch by tenant";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kDrrFinal;
  spec.ordered = true;
  return spec;
}

ProtocolSpec TenantCapSql() {
  ProtocolSpec spec;
  spec.name = "tenant-cap-sql";
  spec.description = "SS2PL-safe minus throttled tenants (cap/tokens)";
  spec.backend = "sql";
  spec.text = std::string(kSs2plCtes) + kTenantCapFinal;
  return spec;
}

ProtocolSpec WfqDatalog() {
  ProtocolSpec spec;
  spec.name = "wfq-datalog";
  spec.description = "wfq as Datalog rules + a rank relation";
  spec.backend = "datalog";
  spec.text = std::string(kSs2plDatalogRules) + kSs2plOkHead + kWfqDatalogTail;
  spec.datalog_rank = "rankkey";
  spec.ordered = true;
  return spec;
}

ProtocolSpec DrrDatalog() {
  ProtocolSpec spec;
  spec.name = "drr-datalog";
  spec.description = "drr as Datalog rules + a rank relation";
  spec.backend = "datalog";
  spec.text = std::string(kSs2plDatalogRules) + kSs2plOkHead + kDrrDatalogTail;
  spec.datalog_rank = "rankkey";
  spec.ordered = true;
  return spec;
}

ProtocolSpec TenantCapDatalog() {
  ProtocolSpec spec;
  spec.name = "tenant-cap-datalog";
  spec.description = "tenant throttling as Datalog rules";
  spec.backend = "datalog";
  spec.text = std::string(kSs2plDatalogRules) + kSs2plOkHead + kTenantCapDatalogTail;
  return spec;
}

ProtocolSpec ComposedReadCommittedEdf(int64_t cap) {
  ProtocolSpec spec;
  spec.name = cap > 0 ? StrFormat("composed-rc-edf-cap%lld",
                                  static_cast<long long>(cap))
                      : "composed-rc-edf";
  spec.description =
      "Composed: read-committed filter, EDF ranking, admission cap";
  spec.backend = "composed";
  spec.text = "filter:read-committed | rank:edf";
  if (cap > 0) {
    spec.text += StrFormat(" | cap:%lld", static_cast<long long>(cap));
  }
  return spec;
}

ProtocolSpec ComposedSs2plPriority(int64_t cap) {
  ProtocolSpec spec;
  spec.name = cap > 0 ? StrFormat("composed-ss2pl-priority-cap%lld",
                                  static_cast<long long>(cap))
                      : "composed-ss2pl-priority";
  spec.description =
      "Composed: SS2PL filter, priority ranking, admission cap";
  spec.backend = "composed";
  spec.text = "filter:ss2pl | rank:priority";
  if (cap > 0) {
    spec.text += StrFormat(" | cap:%lld", static_cast<long long>(cap));
  }
  return spec;
}

ProtocolSpec InterpretedVariant(ProtocolSpec spec) {
  if (spec.backend != "sql" && spec.backend != "datalog") return spec;
  if (spec.text.rfind("interp:", 0) == 0) return spec;  // already forced
  spec.name = "interp:" + spec.name;
  spec.text = "interp:" + spec.text;
  spec.description += " (interpreted oracle)";
  return spec;
}

ProtocolRegistry ProtocolRegistry::BuiltIns() {
  ProtocolRegistry registry;
  for (const ProtocolSpec& spec :
       {Ss2plSql(), Ss2plDatalog(), Ss2plNative(), FcfsSql(), FcfsNative(),
        SlaPrioritySql(), SlaPriorityNative(), EdfSql(), EdfNative(),
        ReadCommittedSql(), ReadCommittedDatalog(), ReadCommittedNative(),
        Passthrough(), ComposedReadCommittedEdf(), ComposedSs2plPriority(),
        WfqSql(), WfqDatalog(), WfqNative(), ComposedWfq(), DrrSql(),
        DrrDatalog(), DrrNative(), ComposedDrr(), TenantCapSql(),
        TenantCapDatalog(), TenantCapNative(), ComposedTenantCap()}) {
    DS_CHECK_OK(registry.Register(spec));
  }
  return registry;
}

Status ProtocolRegistry::Register(ProtocolSpec spec) {
  const std::string name = spec.name;
  if (!specs_.emplace(name, std::move(spec)).second) {
    return Status::AlreadyExists("protocol already registered: " + name);
  }
  return Status::OK();
}

Result<ProtocolSpec> ProtocolRegistry::Get(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) return Status::NotFound("no protocol named " + name);
  return it->second;
}

std::vector<std::string> ProtocolRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) names.push_back(name);
  return names;
}

}  // namespace declsched::scheduler

// Scheduling protocols as data behind a pluggable backend API.
//
// A ProtocolSpec is the declarative description of a scheduling protocol
// (its text plus which backend evaluates it); a Protocol is that spec
// compiled against one RequestStore. Backends are registered by name in a
// ProtocolFactory, so new evaluation strategies — another query language, a
// custom scheduler — plug in without touching the scheduler. The built-in
// SQL, Datalog and stage-pipeline front-ends all lower into one compiled
// runtime (scheduler/ir/), and swapping protocols is a runtime operation —
// the flexibility the paper contrasts against hand-coded schedulers.

#ifndef DECLSCHED_SCHEDULER_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_PROTOCOL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "scheduler/request_store.h"

namespace declsched::scheduler {

class TenantAccountant;

/// Cross-shard escrow state visible to a shard's protocol: transactions
/// whose finisher has been admitted under escrow somewhere in the sharded
/// scheduler and whose locks on this shard will be released when the escrow
/// home shard publishes the dispatch. Purely advisory — the built-in
/// protocols schedule correctly without consulting it — but a policy may
/// use it (e.g. to deprioritize requests that are about to unblock anyway).
struct EscrowedLocks {
  /// Transactions in escrow involving this shard, in admission order.
  std::vector<txn::TxnId> txns;
};

/// Everything a backend may consult when evaluating one scheduling cycle.
/// New fields extend every backend at once without signature churn.
struct ScheduleContext {
  RequestStore* store = nullptr;
  SimTime now;
  /// Which scheduler shard is evaluating (0-based) and how many shards the
  /// scheduler runs. A single-shard DeclarativeScheduler reports 0 of 1.
  int shard = 0;
  int num_shards = 1;
  /// In-flight cross-shard escrows touching this shard; null when the
  /// scheduler runs unsharded (or no escrow is in flight).
  const EscrowedLocks* escrowed = nullptr;
  /// Live per-tenant QoS accounting (starvation guard, cumulative
  /// counters), when the owning scheduler runs a TenantAccountant.
  /// Advisory: the built-in fairness policies read the store's `tenants`
  /// relation instead — which the accountant keeps current — so they
  /// answer identically on a bare store with hand-written tenants rows.
  const TenantAccountant* tenants = nullptr;
};

/// The declarative description of a scheduling protocol. `backend` names the
/// evaluation strategy in the ProtocolFactory; `text` is backend-specific:
/// a SQL SELECT, a Datalog program, or a composed stage pipeline
/// ("filter:ss2pl | rank:edf | cap:16").
struct ProtocolSpec {
  std::string name;
  std::string description;
  std::string backend = "passthrough";
  std::string text;
  /// Datalog: the derived relation holding qualified requests
  /// (id, ta, intrata, operation, object).
  std::string datalog_output = "qualified";
  /// Datalog: optional derived relation (Id, Key...) assigning each
  /// qualified request a sort key; when set, dispatch order is ascending
  /// by the key columns then id (requests missing from the relation sort
  /// last), and the protocol is `ordered`. How ranking policies (wfq,
  /// drr) are expressed in a language without ORDER BY.
  std::string datalog_rank;
  /// If true, the protocol's result order is the dispatch order (SLA/EDF
  /// protocols rank by priority/deadline); otherwise dispatch is by id.
  bool ordered = false;
  /// Size metric for the paper's Section 3.4 productivity comparison:
  /// non-empty, non-comment lines (SQL), rules (Datalog), stages (composed).
  /// Zero for backends without declarative text (passthrough).
  int CodeSize() const;
};

/// A protocol compiled against one RequestStore. Compile once via the
/// factory, Schedule() every cycle, always with a context naming the store
/// it was compiled against (backends may bind compile-time state, e.g. a
/// prepared SQL plan, to that store).
///
/// Thread ownership: a Protocol instance belongs to the one thread that
/// runs its scheduler's cycles. Schedule() and every delta hook are called
/// from that thread only, so backends need no internal locking even when
/// they keep mutable incremental state. In the sharded scheduler each shard
/// compiles its own instance against its own store; instances never share
/// state across shards.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Evaluates the protocol over the store's current pending/history
  /// contents; returns the qualified requests in dispatch order.
  virtual Result<RequestBatch> Schedule(const ScheduleContext& context) const = 0;

  // --- delta hooks (optional) -------------------------------------------
  // The scheduler narrates every mutation it makes to the store it compiled
  // this protocol against, immediately after making it and in mutation
  // order. Backends that keep incremental state apply the delta instead of
  // recomputing from the store next cycle; the defaults no-op, which keeps
  // from-scratch backends correct with zero changes. Hooks are advisory:
  // a backend must stay correct if the store was also mutated out-of-band
  // (incremental backends epoch-check against the store and fall back to a
  // from-scratch rebuild — see LockTableState).

  /// `batch` was drained from the incoming queue into pending.
  virtual void OnAdmitted(const RequestBatch& batch) { (void)batch; }
  /// `batch` just entered history: dispatched requests moved out of
  /// pending, or an abort marker injected for a deadlock victim.
  virtual void OnScheduled(const RequestBatch& batch) { (void)batch; }
  /// GC just retired every history row of `txns` (all terminated).
  virtual void OnFinished(const std::vector<txn::TxnId>& txns) { (void)txns; }

  const ProtocolSpec& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  bool ordered() const { return spec_.ordered; }

 protected:
  explicit Protocol(ProtocolSpec spec) : spec_(std::move(spec)) {}

  ProtocolSpec spec_;
};

/// Registry of protocol backends, keyed by backend name. `Global()` comes
/// pre-loaded with the built-ins (sql, datalog, passthrough, composed);
/// custom backends register a compile function:
///
///   factory.RegisterBackend("mydsl",
///       [](const ProtocolSpec& spec, RequestStore* store)
///           -> Result<std::unique_ptr<Protocol>> { ... });
class ProtocolFactory {
 public:
  using CompileFn = std::function<Result<std::unique_ptr<Protocol>>(
      const ProtocolSpec& spec, RequestStore* store)>;

  /// The process-wide factory with every built-in backend registered.
  static ProtocolFactory& Global();

  /// An empty factory (no backends); useful for tests and sandboxing.
  ProtocolFactory() = default;

  Status RegisterBackend(const std::string& backend, CompileFn compile);
  bool HasBackend(const std::string& backend) const;
  std::vector<std::string> Backends() const;

  /// Compiles `spec` with the backend it names against `store`.
  Result<std::unique_ptr<Protocol>> Compile(const ProtocolSpec& spec,
                                            RequestStore* store) const;

 private:
  std::map<std::string, CompileFn> backends_;
};

/// Sorts `batch` by ascending request id — the dispatch order of every
/// unordered protocol.
void RankById(RequestBatch* batch);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_PROTOCOL_H_

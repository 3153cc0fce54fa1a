// RequestStore: the pending-request and history databases of Figure 1.
//
// Both are ordinary relations in a storage::Catalog so that scheduling
// protocols — SQL queries or Datalog programs — can treat requests as data.
// Schema: the paper's Table 2 columns plus the SLA extension columns.
//
// The store is the single writer of those relations and keeps three pieces
// of derived state so per-cycle work is proportional to what changed, not
// what is resident:
//   - a typed mirror of pending (id -> Request, iterated in id order) that
//     spares every consumer the boxed-Value decode and per-row index
//     re-join;
//   - monotone pending/history epochs, bumped exactly once per mutating
//     call, that incremental consumers (the Datalog EDB cache below, the
//     backends' LockTableState) key their caches on;
//   - a running set of transactions whose commit/abort markers entered
//     history since the last GC, so GarbageCollectFinished() skips both
//     full scans when there is nothing to retire.
// Mutate the relations through this API only; out-of-band table edits are
// tolerated (derived state self-heals via the tables' content-version
// counters) but defeat the incremental machinery.
//
// Thread ownership: a RequestStore belongs to the one thread that runs its
// scheduler's cycles — nothing here locks. In the sharded scheduler each
// shard owns a private store (and therefore private epochs); cross-shard
// effects arrive only as that shard's own cycle-thread mutations (escrow
// mirror markers applied between cycles). Epoch invariant consumers rely
// on: each mutating call that touches a relation bumps that relation's
// epoch exactly once — never zero times, never twice — and the epoch
// value is meaningful only for equality comparison against a value read
// from this same store instance.

#ifndef DECLSCHED_SCHEDULER_REQUEST_STORE_H_
#define DECLSCHED_SCHEDULER_REQUEST_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "datalog/engine.h"
#include "scheduler/request.h"
#include "sql/engine.h"
#include "storage/catalog.h"

namespace declsched::storage {
class Wal;
}  // namespace declsched::storage

namespace declsched::scheduler {

/// One row of the `tenants` accounting relation: the per-tenant QoS state
/// the fairness protocols (wfq, drr, tenant-cap) read, in every backend.
/// `weight`/`rate`/`burst`/`cap` are configuration; `vtime`/`round`/
/// `tokens`/`inflight` are accounting, maintained O(delta) by the
/// TenantAccountant (or set directly via UpsertTenant in tests/benches).
struct TenantAcct {
  int64_t tenant = 0;
  /// Fair-share weight (>= 1). A weight-2 tenant accrues virtual time at
  /// half the rate, so wfq grants it twice the service.
  int64_t weight = 1;
  /// Virtual time: cumulative service micros x kWfqScale / weight. The wfq
  /// rank key (ascending).
  int64_t vtime = 0;
  /// Service rounds consumed: cumulative service / (quantum x weight). The
  /// drr rank key (ascending; coarser than vtime).
  int64_t round = 0;
  /// Token bucket fill; consumed one per dispatched request when rate > 0.
  int64_t tokens = 0;
  /// Token refill rate per simulated second (0 = no rate limit).
  int64_t rate = 0;
  /// Token bucket capacity (refill never exceeds it).
  int64_t burst = 0;
  /// In-flight cap: max resident (dispatched, unfinished) requests
  /// (0 = unlimited).
  int64_t cap = 0;
  /// Resident history rows of this tenant (dispatched, not yet retired).
  int64_t inflight = 0;

  /// The tenant-cap throttle predicate, shared by every formulation: the
  /// compiled plans evaluate exactly what the SQL/Datalog texts say.
  bool Throttled() const {
    return (cap > 0 && inflight >= cap) || (rate > 0 && tokens <= 0);
  }
};

class RequestStore {
 public:
  /// Column layout of both the `requests` and `history` tables.
  /// The first five columns are the paper's Table 2.
  static constexpr int kColId = 0;
  static constexpr int kColTa = 1;
  static constexpr int kColIntrata = 2;
  static constexpr int kColOperation = 3;
  static constexpr int kColObject = 4;
  static constexpr int kColPriority = 5;
  static constexpr int kColDeadline = 6;
  static constexpr int kColArrival = 7;
  static constexpr int kColClient = 8;
  static constexpr int kColTenant = 9;

  /// What one GarbageCollectFinished() call retired.
  struct GcResult {
    int64_t rows_retired = 0;
    /// The terminated transactions whose rows were retired, ascending.
    std::vector<txn::TxnId> txns;
    /// Retired history rows per tenant — read off each row as it is
    /// retired (still O(rows retired)), so the TenantAccountant can
    /// decrement per-tenant inflight without keeping its own ta map.
    std::map<int64_t, int64_t> rows_by_tenant;
  };

  RequestStore();

  storage::Catalog* catalog() { return &catalog_; }
  const storage::Catalog* catalog() const { return &catalog_; }
  sql::SqlEngine* sql_engine() { return &engine_; }

  /// Appends a batch to the pending `requests` relation.
  Status InsertPending(const RequestBatch& batch);

  /// Moves scheduled requests: delete from `requests`, insert into `history`.
  /// (Paper Section 3.3, step three.)
  Status MarkScheduled(const RequestBatch& batch);

  /// Appends one row straight to history — how the scheduler injects the
  /// abort marker of a deadlock victim.
  Status InsertHistory(const Request& request);

  /// Drops every pending request of `ta`; returns how many were dropped.
  /// When `dropped_by_tenant` is non-null, accumulates the drop counts per
  /// tenant into it (the TenantAccountant's O(delta) pending bookkeeping).
  int64_t DropPendingOfTransaction(
      txn::TxnId ta, std::map<int64_t, int64_t>* dropped_by_tenant = nullptr);

  /// Deletes every history row of transactions that have a commit/abort
  /// marker. Under SS2PL those rows no longer represent locks; retiring them
  /// keeps the history table at the active working set ("all *relevant*
  /// prior executed requests"). O(1) when no marker arrived since the last
  /// call; otherwise O(rows of the finished transactions) via the ta index.
  Result<GcResult> GarbageCollectFinished();

  /// All pending requests, by ascending id (a copy of the mirror).
  Result<RequestBatch> AllPending() const;

  /// The typed mirror of pending, keyed — and therefore iterated — by id.
  /// The zero-copy way to walk pending; valid until the next mutation.
  const std::map<int64_t, Request>& pending_by_id() const;

  int64_t pending_count() const;
  int64_t history_count() const;

  /// Epochs bump exactly once per mutating call that touched the relation.
  /// Consumers cache derived state keyed on them (equality compare only).
  uint64_t pending_epoch() const { return pending_epoch_; }
  uint64_t history_epoch() const { return history_epoch_; }

  /// The history table's content-mutation counter (storage::Table::
  /// version()). Unlike the epoch, it also moves on out-of-band edits —
  /// ad-hoc SQL DML, partial failures — so incremental consumers pair it
  /// with the epoch to detect every way history can change under them.
  uint64_t history_version() const;

  // --- the `tenants` accounting relation -------------------------------
  // Visible to SQL protocols as the `tenants` table and to Datalog as the
  // `tenantacct` EDB relation; the typed mirror below is the zero-decode
  // path the compiled plans read. InsertPending
  // auto-creates a default row for any tenant first seen on a pending
  // request, so fairness protocols can always inner-join requests with
  // tenants. Unlike requests/history, mutate this relation through
  // UpsertTenant only — out-of-band SQL DML against `tenants` is detected
  // (content version) and answered by a mirror rebuild from the table.

  /// Inserts or overwrites the row of `acct.tenant` (table + mirror).
  Status UpsertTenant(const TenantAcct& acct);

  /// The typed mirror of the `tenants` relation, keyed by tenant id;
  /// valid until the next mutation. Missing tenant = default TenantAcct.
  const std::map<int64_t, TenantAcct>& tenants_by_id() const;

  /// The acct of one tenant (default row if the tenant has no row yet).
  TenantAcct TenantOrDefault(int64_t tenant) const;

  int64_t tenant_count() const;

  /// EDB for Datalog protocols:
  ///   req(Id, Ta, Intrata, Op, Obj), hist(Id, Ta, Intrata, Op, Obj),
  ///   reqmeta(Id, Priority, Deadline, Arrival),
  ///   reqtenant(Id, Tenant),
  ///   tenantacct(Tenant, Weight, Vtime, Round, Tokens, Rate, Cap,
  ///              Inflight).
  /// Cached with per-relation epoch invalidation: req/reqmeta/reqtenant
  /// rebuild only when pending changed, hist only when history changed,
  /// tenantacct only when the tenants table changed, so repeat consumers
  /// in one cycle (protocol, deadlock resolver) share one build. The
  /// reference is valid until the next mutation.
  const datalog::Database& BuildDatalogEdb() const;

  /// The one row -> Request decode/join path shared by every interpreted
  /// backend: converts result rows carrying the Table 2 columns
  /// (id, ta, intrata, operation, object) into Requests, rejoining the SLA
  /// columns from the typed pending mirror in the same pass. `cols` gives
  /// the position of each Table 2 column in the result schema (the SQL
  /// backend's by-name binding); the default overload is for results in
  /// canonical column order (Datalog relations, raw table projections).
  Result<RequestBatch> RowsToRequests(const std::vector<storage::Row>& rows,
                                      const std::vector<int>& cols) const;
  Result<RequestBatch> RowsToRequests(const std::vector<storage::Row>& rows) const;

  /// Decodes the `operation` column ("r"/"w"/"a", anything else = commit) —
  /// the one mapping every consumer of these tables must share.
  static txn::OpType ParseOperation(const std::string& op);

  /// Decodes a full 9-column `requests`/`history` row. The one place the
  /// column layout is interpreted; consumers scanning raw table rows (the
  /// mirror rebuilds) must share it.
  static Request RowToRequestFull(const storage::Row& row);

  /// Row codecs of the `tenants` relation, shared with the snapshot/restore
  /// path (scheduler/durability.h).
  static storage::Row TenantToRow(const TenantAcct& acct);
  static TenantAcct RowToTenant(const storage::Row& row);

  // --- durability --------------------------------------------------------
  // When a WAL is attached, every successful mutating call appends exactly
  // one logical record (tagged with this store's shard id) describing it,
  // so replaying records 1..N through ApplyWalRecord reproduces the store's
  // relations exactly. Recovery replays with the WAL detached — the same
  // mutators run, but must not re-log.

  void AttachWal(storage::Wal* wal, uint16_t shard);
  void DetachWal();
  storage::Wal* wal() const { return wal_; }
  /// LSN of this store's most recent WAL record (0 = none since attach).
  /// A dispatch is durably acknowledged once wal()->durable_lsn() passes
  /// the value read right after the dispatching cycle.
  uint64_t last_wal_lsn() const { return last_wal_lsn_; }

 private:
  static storage::Row ToRow(const Request& request);

  /// Appends one record for a mutation that just succeeded (no-op when no
  /// WAL is attached).
  void LogWal(uint8_t type, std::string_view payload);

  /// Rebuilds the mirror from the table if an out-of-band edit changed the
  /// row count underneath it.
  void EnsureMirror() const;
  /// As EnsureMirror, for the tenants relation.
  void EnsureTenantMirror() const;
  /// Tracks a row entering history (marker bookkeeping; no epoch bump).
  Status AppendHistoryRow(const Request& request);

  storage::Catalog catalog_;
  sql::SqlEngine engine_;
  storage::Table* requests_ = nullptr;
  storage::Table* history_ = nullptr;
  storage::Table* tenants_ = nullptr;

  /// Typed mirror of the `requests` relation. Mutable: EnsureMirror() may
  /// lazily self-heal from a const accessor. `mirror_version_` is the table
  /// version the mirror reflects; any mismatch — out-of-band DML, an error
  /// path that bailed early — triggers a rebuild.
  mutable std::map<int64_t, Request> pending_by_id_;
  mutable uint64_t mirror_version_ = 0;
  /// Transactions with a termination marker in history not yet retired.
  /// Valid only while the history table's version equals
  /// `history_version_expected_` (the version after this store's own last
  /// mutation); an out-of-band edit forces the next GC to rescan markers.
  std::unordered_set<txn::TxnId> unretired_finished_;
  uint64_t history_version_expected_ = 0;
  /// Epochs start at 1 so 0 can serve consumers as a "never synced" value.
  mutable uint64_t pending_epoch_ = 1;
  uint64_t history_epoch_ = 1;

  /// Typed mirror of the `tenants` relation; self-heals from the table on
  /// version mismatch, like the pending mirror.
  mutable std::map<int64_t, TenantAcct> tenants_by_id_;
  mutable uint64_t tenant_mirror_version_ = 0;

  // Datalog EDB cache (see BuildDatalogEdb). A cached epoch of 0 is stale.
  mutable datalog::Database edb_cache_;
  mutable uint64_t edb_pending_epoch_ = 0;
  mutable uint64_t edb_history_epoch_ = 0;
  mutable uint64_t edb_history_version_ = 0;
  /// Sentinel-initialized so the first build materializes the (possibly
  /// empty) tenantacct relation (table versions start at 0).
  mutable uint64_t edb_tenant_version_ = ~uint64_t{0};

  /// Durability hooks (see AttachWal). Not owned.
  storage::Wal* wal_ = nullptr;
  uint16_t wal_shard_ = 0;
  uint64_t last_wal_lsn_ = 0;
  /// Reused by every LogWal call site so record encoding never allocates in
  /// steady state (the capacity sticks across mutations).
  std::string wal_scratch_;
};

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_REQUEST_STORE_H_

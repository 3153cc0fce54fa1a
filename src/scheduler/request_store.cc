#include "scheduler/request_store.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/durability.h"
#include "storage/wal.h"

namespace declsched::scheduler {

using storage::Row;
using storage::RowId;
using storage::Value;
using storage::ValueType;

namespace {

storage::Schema RequestSchema() {
  return storage::Schema({
      {"id", ValueType::kInt64},
      {"ta", ValueType::kInt64},
      {"intrata", ValueType::kInt64},
      {"operation", ValueType::kString},
      {"object", ValueType::kInt64},
      {"priority", ValueType::kInt64},
      {"deadline", ValueType::kInt64},
      {"arrival", ValueType::kInt64},
      {"client", ValueType::kInt64},
      {"tenant", ValueType::kInt64},
  });
}

storage::Schema TenantSchema() {
  return storage::Schema({
      {"tenant", ValueType::kInt64},
      {"weight", ValueType::kInt64},
      {"vtime", ValueType::kInt64},
      {"round", ValueType::kInt64},
      {"tokens", ValueType::kInt64},
      {"rate", ValueType::kInt64},
      {"burst", ValueType::kInt64},
      {"cap", ValueType::kInt64},
      {"inflight", ValueType::kInt64},
  });
}

bool IsTerminationMarker(txn::OpType op) {
  return op == txn::OpType::kCommit || op == txn::OpType::kAbort;
}

}  // namespace

void RequestStore::AttachWal(storage::Wal* wal, uint16_t shard) {
  wal_ = wal;
  wal_shard_ = shard;
  last_wal_lsn_ = 0;
}

void RequestStore::DetachWal() {
  wal_ = nullptr;
  last_wal_lsn_ = 0;
}

void RequestStore::LogWal(uint8_t type, std::string_view payload) {
  if (wal_ == nullptr) return;
  last_wal_lsn_ = wal_->Append(type, wal_shard_, payload);
}

txn::OpType RequestStore::ParseOperation(const std::string& op) {
  if (op == "r") return txn::OpType::kRead;
  if (op == "w") return txn::OpType::kWrite;
  if (op == "a") return txn::OpType::kAbort;
  return txn::OpType::kCommit;
}

RequestStore::RequestStore() : engine_(&catalog_) {
  requests_ = catalog_.CreateTable("requests", RequestSchema()).ValueOrDie();
  history_ = catalog_.CreateTable("history", RequestSchema()).ValueOrDie();
  tenants_ = catalog_.CreateTable("tenants", TenantSchema()).ValueOrDie();
  // Point lookups by id (MarkScheduled), GC by ta, and tenant upserts
  // benefit from indexes.
  DS_CHECK_OK(requests_->CreateIndex("id"));
  DS_CHECK_OK(history_->CreateIndex("ta"));
  DS_CHECK_OK(tenants_->CreateIndex("tenant"));
}

storage::Row RequestStore::ToRow(const Request& request) {
  return Row{
      Value::Int64(request.id),
      Value::Int64(request.ta),
      Value::Int64(request.intrata),
      Value::String(std::string(1, txn::OpTypeToChar(request.op))),
      Value::Int64(request.object),
      Value::Int64(request.priority),
      Value::Int64(request.deadline.micros()),
      Value::Int64(request.arrival.micros()),
      Value::Int64(request.client),
      Value::Int64(request.tenant),
  };
}

Request RequestStore::RowToRequestFull(const storage::Row& row) {
  Request r;
  r.id = row[kColId].AsInt64();
  r.ta = row[kColTa].AsInt64();
  r.intrata = row[kColIntrata].AsInt64();
  r.op = ParseOperation(row[kColOperation].AsString());
  r.object = row[kColObject].AsInt64();
  r.priority = static_cast<int>(row[kColPriority].AsInt64());
  r.deadline = SimTime::FromMicros(row[kColDeadline].AsInt64());
  r.arrival = SimTime::FromMicros(row[kColArrival].AsInt64());
  r.client = static_cast<int>(row[kColClient].AsInt64());
  r.tenant = static_cast<int>(row[kColTenant].AsInt64());
  return r;
}

storage::Row RequestStore::TenantToRow(const TenantAcct& acct) {
  return Row{
      Value::Int64(acct.tenant),  Value::Int64(acct.weight),
      Value::Int64(acct.vtime),   Value::Int64(acct.round),
      Value::Int64(acct.tokens),  Value::Int64(acct.rate),
      Value::Int64(acct.burst),   Value::Int64(acct.cap),
      Value::Int64(acct.inflight),
  };
}

TenantAcct RequestStore::RowToTenant(const storage::Row& row) {
  TenantAcct a;
  a.tenant = row[0].AsInt64();
  a.weight = row[1].AsInt64();
  a.vtime = row[2].AsInt64();
  a.round = row[3].AsInt64();
  a.tokens = row[4].AsInt64();
  a.rate = row[5].AsInt64();
  a.burst = row[6].AsInt64();
  a.cap = row[7].AsInt64();
  a.inflight = row[8].AsInt64();
  return a;
}

void RequestStore::EnsureMirror() const {
  // Version equality is exact: every content mutation of the table bumps
  // it, so both out-of-band edits (ad-hoc SQL DML, count-preserving
  // UPDATEs included) and this store's own error paths that bailed before
  // recording the version land here and heal.
  if (mirror_version_ == requests_->version()) return;
  pending_by_id_.clear();
  requests_->ForEach([&](RowId, const Row& row) {
    Request r = RowToRequestFull(row);
    pending_by_id_.emplace(r.id, std::move(r));
  });
  mirror_version_ = requests_->version();
  ++pending_epoch_;
}

Status RequestStore::InsertPending(const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  EnsureMirror();
  EnsureTenantMirror();
  // Auto-create a default tenants row for tenants first seen on a pending
  // request, so fairness protocols can always inner-join requests with
  // tenants. `last` short-circuits the common one-tenant batch (a flag,
  // not a sentinel value: every int is a legal tenant id).
  bool have_last = false;
  int64_t last = 0;
  for (const Request& request : batch) {
    DS_RETURN_NOT_OK(requests_->Insert(ToRow(request)).status());
    pending_by_id_[request.id] = request;
    if ((!have_last || request.tenant != last) &&
        tenants_by_id_.find(request.tenant) == tenants_by_id_.end()) {
      TenantAcct acct;
      acct.tenant = request.tenant;
      DS_RETURN_NOT_OK(tenants_->Insert(TenantToRow(acct)).status());
      tenants_by_id_.emplace(acct.tenant, acct);
      tenant_mirror_version_ = tenants_->version();
    }
    have_last = true;
    last = request.tenant;
  }
  mirror_version_ = requests_->version();
  ++pending_epoch_;
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestsTo(&wal_scratch_, batch);
    LogWal(static_cast<uint8_t>(WalRecordType::kInsertPending), wal_scratch_);
  }
  return Status::OK();
}

Status RequestStore::UpsertTenant(const TenantAcct& acct) {
  EnsureTenantMirror();
  DS_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                      tenants_->IndexLookup(0, Value::Int64(acct.tenant)));
  if (ids.empty()) {
    DS_RETURN_NOT_OK(tenants_->Insert(TenantToRow(acct)).status());
  } else if (ids.size() == 1) {
    DS_RETURN_NOT_OK(tenants_->Update(ids[0], TenantToRow(acct)));
  } else {
    return Status::Internal(StrFormat("tenant %lld matched %zu rows",
                                      static_cast<long long>(acct.tenant),
                                      ids.size()));
  }
  tenants_by_id_[acct.tenant] = acct;
  tenant_mirror_version_ = tenants_->version();
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeTenantTo(&wal_scratch_, acct);
    LogWal(static_cast<uint8_t>(WalRecordType::kUpsertTenant), wal_scratch_);
  }
  return Status::OK();
}

void RequestStore::EnsureTenantMirror() const {
  if (tenant_mirror_version_ == tenants_->version()) return;
  tenants_by_id_.clear();
  tenants_->ForEach([&](RowId, const Row& row) {
    TenantAcct a = RowToTenant(row);
    tenants_by_id_.emplace(a.tenant, a);
  });
  tenant_mirror_version_ = tenants_->version();
}

const std::map<int64_t, TenantAcct>& RequestStore::tenants_by_id() const {
  EnsureTenantMirror();
  return tenants_by_id_;
}

TenantAcct RequestStore::TenantOrDefault(int64_t tenant) const {
  EnsureTenantMirror();
  auto it = tenants_by_id_.find(tenant);
  if (it != tenants_by_id_.end()) return it->second;
  TenantAcct acct;
  acct.tenant = tenant;
  return acct;
}

int64_t RequestStore::tenant_count() const { return tenants_->size(); }

Status RequestStore::AppendHistoryRow(const Request& request) {
  DS_RETURN_NOT_OK(history_->Insert(ToRow(request)).status());
  if (IsTerminationMarker(request.op)) unretired_finished_.insert(request.ta);
  return Status::OK();
}

Status RequestStore::MarkScheduled(const RequestBatch& batch) {
  if (batch.empty()) return Status::OK();
  EnsureMirror();
  // Bump before moving rows: a failure partway through is still a mutation,
  // and epoch-keyed consumers must resync rather than serve stale state.
  ++pending_epoch_;
  ++history_epoch_;
  for (const Request& request : batch) {
    DS_ASSIGN_OR_RETURN(std::vector<RowId> ids,
                        requests_->IndexLookup(kColId, Value::Int64(request.id)));
    if (ids.size() != 1) {
      return Status::Internal(StrFormat("request #%lld matched %zu pending rows",
                                        static_cast<long long>(request.id),
                                        ids.size()));
    }
    // Move the full stored row (the scheduled batch may carry only the
    // protocol's projection of it).
    Row row = *requests_->Get(ids[0]);
    DS_RETURN_NOT_OK(requests_->Delete(ids[0]));
    pending_by_id_.erase(request.id);
    if (IsTerminationMarker(ParseOperation(row[kColOperation].AsString()))) {
      unretired_finished_.insert(row[kColTa].AsInt64());
    }
    DS_RETURN_NOT_OK(history_->Insert(std::move(row)).status());
  }
  requests_->MaybeVacuum();
  mirror_version_ = requests_->version();
  history_version_expected_ = history_->version();
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestIdsTo(&wal_scratch_, batch);
    LogWal(static_cast<uint8_t>(WalRecordType::kMarkScheduled), wal_scratch_);
  }
  return Status::OK();
}

Status RequestStore::InsertHistory(const Request& request) {
  DS_RETURN_NOT_OK(AppendHistoryRow(request));
  history_version_expected_ = history_->version();
  ++history_epoch_;
  if (wal_ != nullptr) {
    wal_scratch_.clear();
    EncodeRequestsTo(&wal_scratch_, {request});
    LogWal(static_cast<uint8_t>(WalRecordType::kInsertHistory), wal_scratch_);
  }
  return Status::OK();
}

int64_t RequestStore::DropPendingOfTransaction(
    txn::TxnId ta, std::map<int64_t, int64_t>* dropped_by_tenant) {
  EnsureMirror();
  const int64_t removed = requests_->DeleteWhere([ta](const Row& row) {
    return row[kColTa].AsInt64() == ta;
  });
  if (removed > 0) {
    for (auto it = pending_by_id_.begin(); it != pending_by_id_.end();) {
      if (it->second.ta == ta) {
        if (dropped_by_tenant != nullptr) {
          ++(*dropped_by_tenant)[it->second.tenant];
        }
        it = pending_by_id_.erase(it);
      } else {
        ++it;
      }
    }
    mirror_version_ = requests_->version();
    ++pending_epoch_;
    // Zero-row drops are not logged: they mutate nothing, and replay would
    // observe the same zero rows anyway.
    if (wal_ != nullptr) {
      wal_scratch_.clear();
      EncodeTxnIdTo(&wal_scratch_, ta);
      LogWal(static_cast<uint8_t>(WalRecordType::kDropPending), wal_scratch_);
    }
  }
  return removed;
}

Result<RequestStore::GcResult> RequestStore::GarbageCollectFinished() {
  GcResult gc;
  // Out-of-band history edits invalidate the running marker count; rescan
  // like the pre-incremental implementation did every call. (Markers only
  // ever leave history through this function, which clears the set, so a
  // full rebuild here is exact — including markers deleted out-of-band.)
  if (history_version_expected_ != history_->version()) {
    unretired_finished_.clear();
    history_->ForEach([&](RowId, const Row& row) {
      if (IsTerminationMarker(ParseOperation(row[kColOperation].AsString()))) {
        unretired_finished_.insert(row[kColTa].AsInt64());
      }
    });
    history_version_expected_ = history_->version();
  }
  // Fast path: markers were counted as they entered history, so "nothing to
  // retire" costs no scan at all.
  if (unretired_finished_.empty()) return gc;
  gc.txns.assign(unretired_finished_.begin(), unretired_finished_.end());
  std::sort(gc.txns.begin(), gc.txns.end());
  unretired_finished_.clear();
  // Bump before retiring: if a delete below fails partway, epoch-keyed
  // consumers still see a mutation and resync instead of serving stale.
  ++history_epoch_;
  // Retire each finished transaction's rows (markers included) through the
  // ta index: O(rows retired), independent of resident history size.
  for (txn::TxnId ta : gc.txns) {
    DS_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                        history_->IndexLookup(kColTa, Value::Int64(ta)));
    for (RowId id : rows) {
      ++gc.rows_by_tenant[(*history_->Get(id))[kColTenant].AsInt64()];
      DS_RETURN_NOT_OK(history_->Delete(id));
    }
    gc.rows_retired += static_cast<int64_t>(rows.size());
  }
  history_->MaybeVacuum();
  history_version_expected_ = history_->version();
  // The record carries no payload: GC is a deterministic function of the
  // history relation, which replay has already reproduced at this point.
  LogWal(static_cast<uint8_t>(WalRecordType::kGc), {});
  return gc;
}

Result<RequestBatch> RequestStore::AllPending() const {
  EnsureMirror();
  RequestBatch out;
  out.reserve(pending_by_id_.size());
  for (const auto& [id, request] : pending_by_id_) out.push_back(request);
  return out;
}

const std::map<int64_t, Request>& RequestStore::pending_by_id() const {
  EnsureMirror();
  return pending_by_id_;
}

int64_t RequestStore::pending_count() const { return requests_->size(); }
int64_t RequestStore::history_count() const { return history_->size(); }
uint64_t RequestStore::history_version() const { return history_->version(); }

const datalog::Database& RequestStore::BuildDatalogEdb() const {
  EnsureMirror();
  if (edb_pending_epoch_ != pending_epoch_) {
    datalog::Relation& req = edb_cache_["req"];
    datalog::Relation& reqmeta = edb_cache_["reqmeta"];
    datalog::Relation& reqtenant = edb_cache_["reqtenant"];
    req.clear();
    reqmeta.clear();
    reqtenant.clear();
    req.reserve(pending_by_id_.size());
    reqmeta.reserve(pending_by_id_.size());
    reqtenant.reserve(pending_by_id_.size());
    for (const auto& [id, r] : pending_by_id_) {
      req.push_back({Value::Int64(r.id), Value::Int64(r.ta),
                     Value::Int64(r.intrata),
                     Value::String(std::string(1, txn::OpTypeToChar(r.op))),
                     Value::Int64(r.object)});
      reqmeta.push_back({Value::Int64(r.id), Value::Int64(r.priority),
                         Value::Int64(r.deadline.micros()),
                         Value::Int64(r.arrival.micros())});
      reqtenant.push_back({Value::Int64(r.id), Value::Int64(r.tenant)});
    }
    edb_pending_epoch_ = pending_epoch_;
  }
  if (edb_tenant_version_ != tenants_->version()) {
    EnsureTenantMirror();
    datalog::Relation& acct = edb_cache_["tenantacct"];
    acct.clear();
    acct.reserve(tenants_by_id_.size());
    for (const auto& [tenant, a] : tenants_by_id_) {
      acct.push_back({Value::Int64(a.tenant), Value::Int64(a.weight),
                      Value::Int64(a.vtime), Value::Int64(a.round),
                      Value::Int64(a.tokens), Value::Int64(a.rate),
                      Value::Int64(a.cap), Value::Int64(a.inflight)});
    }
    edb_tenant_version_ = tenants_->version();
  }
  if (edb_history_epoch_ != history_epoch_ ||
      edb_history_version_ != history_->version()) {
    datalog::Relation& hist = edb_cache_["hist"];
    hist.clear();
    hist.reserve(static_cast<size_t>(history_->size()));
    history_->ForEach([&](RowId, const Row& row) {
      hist.push_back({row[kColId], row[kColTa], row[kColIntrata],
                      row[kColOperation], row[kColObject]});
    });
    edb_history_epoch_ = history_epoch_;
    edb_history_version_ = history_->version();
  }
  return edb_cache_;
}

Result<RequestBatch> RequestStore::RowsToRequests(
    const std::vector<storage::Row>& rows, const std::vector<int>& cols) const {
  if (cols.size() != 5) {
    return Status::InvalidArgument(
        "RowsToRequests needs the five Table 2 column positions");
  }
  EnsureMirror();
  RequestBatch batch;
  batch.reserve(rows.size());
  for (const storage::Row& row : rows) {
    for (int col : cols) {
      if (col < 0 || static_cast<size_t>(col) >= row.size()) {
        return Status::InvalidArgument(
            "protocol result row lacks the Table 2 columns");
      }
    }
    Request request;
    request.id = row[static_cast<size_t>(cols[0])].AsInt64();
    request.ta = row[static_cast<size_t>(cols[1])].AsInt64();
    request.intrata = row[static_cast<size_t>(cols[2])].AsInt64();
    request.op = ParseOperation(row[static_cast<size_t>(cols[3])].AsString());
    request.object = row[static_cast<size_t>(cols[4])].AsInt64();
    // Rejoin the metadata columns from the pending mirror (protocols only
    // guarantee the Table 2 columns in their result); rows carrying the
    // full canonical layout fall back to their own columns.
    auto it = pending_by_id_.find(request.id);
    if (it != pending_by_id_.end()) {
      request.priority = it->second.priority;
      request.deadline = it->second.deadline;
      request.arrival = it->second.arrival;
      request.client = it->second.client;
      request.tenant = it->second.tenant;
    } else if (row.size() >= 10 && cols[0] == kColId && cols[1] == kColTa &&
               cols[2] == kColIntrata && cols[3] == kColOperation &&
               cols[4] == kColObject) {
      // Only a fully canonical layout guarantees columns 5..9 really are
      // the SLA metadata; a permuted schema must not decode garbage.
      request.priority = static_cast<int>(row[kColPriority].AsInt64());
      request.deadline = SimTime::FromMicros(row[kColDeadline].AsInt64());
      request.arrival = SimTime::FromMicros(row[kColArrival].AsInt64());
      request.client = static_cast<int>(row[kColClient].AsInt64());
      request.tenant = static_cast<int>(row[kColTenant].AsInt64());
    }
    batch.push_back(request);
  }
  return batch;
}

Result<RequestBatch> RequestStore::RowsToRequests(
    const std::vector<storage::Row>& rows) const {
  static const std::vector<int> kCanonical = {kColId, kColTa, kColIntrata,
                                              kColOperation, kColObject};
  return RowsToRequests(rows, kCanonical);
}

}  // namespace declsched::scheduler

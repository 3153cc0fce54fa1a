#include "scheduler/lock_table.h"

#include <algorithm>

#include "storage/table.h"

namespace declsched::scheduler {

namespace {

using txn::ObjectId;
using txn::TxnId;

void InsertHolder(std::unordered_map<ObjectId, std::vector<TxnId>>* locks,
                  ObjectId object, TxnId ta) {
  std::vector<TxnId>& holders = (*locks)[object];
  if (std::find(holders.begin(), holders.end(), ta) == holders.end()) {
    holders.push_back(ta);
  }
}

void EraseHolder(std::unordered_map<ObjectId, std::vector<TxnId>>* locks,
                 ObjectId object, TxnId ta) {
  auto it = locks->find(object);
  if (it == locks->end()) return;
  auto& holders = it->second;
  holders.erase(std::remove(holders.begin(), holders.end(), ta), holders.end());
  if (holders.empty()) locks->erase(it);
}

void InsertObject(std::vector<ObjectId>* objects, ObjectId object) {
  if (std::find(objects->begin(), objects->end(), object) == objects->end()) {
    objects->push_back(object);
  }
}

bool ContainsObject(const std::vector<ObjectId>& objects, ObjectId object) {
  return std::find(objects.begin(), objects.end(), object) != objects.end();
}

}  // namespace

bool LockedByOther(
    const std::unordered_map<ObjectId, std::vector<TxnId>>& locks,
    ObjectId object, TxnId self) {
  auto it = locks.find(object);
  if (it == locks.end()) return false;
  for (TxnId holder : it->second) {
    if (holder != self) return true;
  }
  return false;
}

void PendingConflicts::Add(const Request& r) {
  auto [it, inserted] = oldest_any.emplace(r.object, r.ta);
  if (!inserted && r.ta < it->second) it->second = r.ta;
  if (r.op == txn::OpType::kWrite) {
    auto [wit, winserted] = oldest_write.emplace(r.object, r.ta);
    if (!winserted && r.ta < wit->second) wit->second = r.ta;
  }
}

PendingConflicts::PendingConflicts(const RequestBatch& pending) {
  for (const Request& r : pending) Add(r);
}

PendingConflicts::PendingConflicts(
    const std::map<int64_t, Request>& pending_by_id) {
  for (const auto& [id, r] : pending_by_id) Add(r);
}

LockTable BuildLockTable(RequestStore* store) {
  LockTable locks;
  const storage::Table* history = store->catalog()->GetTable("history");

  // Single table scan into a compact op list; the lock sets need a second
  // pass because finished/wrote facts may arrive after the rows they gate.
  struct HistOp {
    txn::OpType op;
    TxnId ta;
    ObjectId object;
  };
  std::vector<HistOp> ops;
  std::unordered_map<ObjectId, std::vector<TxnId>> wrote;
  history->ForEach([&](storage::RowId, const storage::Row& row) {
    const txn::OpType op =
        RequestStore::ParseOperation(row[RequestStore::kColOperation].AsString());
    const TxnId ta = row[RequestStore::kColTa].AsInt64();
    if (op == txn::OpType::kCommit || op == txn::OpType::kAbort) {
      locks.finished.insert(ta);
      return;
    }
    const ObjectId object = row[RequestStore::kColObject].AsInt64();
    if (op == txn::OpType::kWrite) InsertHolder(&wrote, object, ta);
    ops.push_back(HistOp{op, ta, object});
  });

  for (const HistOp& h : ops) {
    if (locks.finished.count(h.ta) > 0) continue;
    if (h.op == txn::OpType::kWrite) {
      InsertHolder(&locks.wlocks, h.object, h.ta);
    } else if (h.op == txn::OpType::kRead) {
      auto it = wrote.find(h.object);
      if (it == wrote.end() ||
          std::find(it->second.begin(), it->second.end(), h.ta) ==
              it->second.end()) {
        InsertHolder(&locks.rlocks, h.object, h.ta);
      }
    }
  }
  return locks;
}

const LockTable& LockTableState::Refresh(const RequestStore& store) {
  if (!synced_with(store)) Rebuild(store);
  return table_;
}

bool LockTableState::AcceptDelta(const RequestStore& store,
                                 uint64_t expected_version) {
  if (synced_epoch_ != kUnsynced &&
      store.history_epoch() == synced_epoch_ + 1 &&
      (expected_version == kAnyVersion ||
       store.history_version() == expected_version)) {
    return true;
  }
  // Missed at least one mutation (or never synced): stay stale until the
  // next Refresh() rebuilds.
  synced_epoch_ = kUnsynced;
  return false;
}

void LockTableState::ApplyHistoryAppend(const RequestBatch& batch,
                                        const RequestStore& store) {
  // The narrated mutation appended exactly batch.size() history rows; any
  // other version movement means something else also wrote the table.
  if (!AcceptDelta(store, synced_version_ + batch.size())) return;
  for (const Request& r : batch) ApplyRow(r.op, r.ta, r.object);
  synced_epoch_ = store.history_epoch();
  synced_version_ = store.history_version();
  ++deltas_applied_;
}

void LockTableState::ApplyFinished(const std::vector<TxnId>& txns,
                                   const RequestStore& store) {
  // GC's row count is not in the hook, so only the epoch handshake gates
  // here; a concurrent out-of-band edit is caught by the next Refresh()'s
  // version check at the latest.
  if (!AcceptDelta(store, kAnyVersion)) return;
  for (TxnId ta : txns) {
    // The transaction's locks were already released when its termination
    // marker entered history; GC retiring its rows only shrinks `finished`
    // (matching what a from-scratch scan of the post-GC history would see).
    table_.finished.erase(ta);
    ReleaseTransaction(ta);
  }
  synced_epoch_ = store.history_epoch();
  synced_version_ = store.history_version();
  ++deltas_applied_;
}

void LockTableState::ApplyRow(txn::OpType op, TxnId ta, ObjectId object) {
  if (op == txn::OpType::kCommit || op == txn::OpType::kAbort) {
    table_.finished.insert(ta);
    ReleaseTransaction(ta);
    return;
  }
  if (table_.finished.count(ta) > 0) return;  // late row of a finished txn
  TxnLocks& held = txn_locks_[ta];
  if (op == txn::OpType::kWrite) {
    InsertHolder(&table_.wlocks, object, ta);
    InsertObject(&held.wlocked, object);
    // A write upgrades this transaction's own read lock: under the
    // wrote-suppression rule its reads of the object no longer r-lock it.
    if (ContainsObject(held.rlocked, object)) {
      EraseHolder(&table_.rlocks, object, ta);
      held.rlocked.erase(
          std::remove(held.rlocked.begin(), held.rlocked.end(), object),
          held.rlocked.end());
    }
  } else if (op == txn::OpType::kRead) {
    if (ContainsObject(held.wlocked, object)) return;  // own write shadows it
    InsertHolder(&table_.rlocks, object, ta);
    InsertObject(&held.rlocked, object);
  }
}

void LockTableState::ReleaseTransaction(TxnId ta) {
  auto it = txn_locks_.find(ta);
  if (it == txn_locks_.end()) return;
  for (ObjectId object : it->second.wlocked) {
    EraseHolder(&table_.wlocks, object, ta);
  }
  for (ObjectId object : it->second.rlocked) {
    EraseHolder(&table_.rlocks, object, ta);
  }
  txn_locks_.erase(it);
}

void LockTableState::Rebuild(const RequestStore& store) {
  table_ = LockTable{};
  txn_locks_.clear();
  const storage::Table* history = store.catalog()->GetTable("history");
  // Same two-pass derivation as BuildLockTable, routed through ApplyRow so
  // the per-transaction lock sets are populated for later releases. Rows
  // are replayed termination-markers-first, then writes, then reads —
  // order-insensitive equivalents of the from-scratch passes.
  struct HistOp {
    txn::OpType op;
    TxnId ta;
    ObjectId object;
  };
  std::vector<HistOp> reads;
  std::vector<HistOp> writes;
  history->ForEach([&](storage::RowId, const storage::Row& row) {
    const txn::OpType op =
        RequestStore::ParseOperation(row[RequestStore::kColOperation].AsString());
    const TxnId ta = row[RequestStore::kColTa].AsInt64();
    const ObjectId object = row[RequestStore::kColObject].AsInt64();
    if (op == txn::OpType::kCommit || op == txn::OpType::kAbort) {
      ApplyRow(op, ta, object);
    } else if (op == txn::OpType::kWrite) {
      writes.push_back(HistOp{op, ta, object});
    } else {
      reads.push_back(HistOp{op, ta, object});
    }
  });
  for (const HistOp& h : writes) ApplyRow(h.op, h.ta, h.object);
  for (const HistOp& h : reads) ApplyRow(h.op, h.ta, h.object);
  synced_epoch_ = store.history_epoch();
  synced_version_ = store.history_version();
  ++full_rebuilds_;
}

RequestBatch FilterSs2pl(const LockTable& locks, const RequestBatch& pending) {
  const PendingConflicts conflicts(pending);
  RequestBatch qualified;
  qualified.reserve(pending.size());
  for (const Request& r : pending) {
    if (LockedByOther(locks.wlocks, r.object, r.ta)) continue;
    const bool is_write = r.op == txn::OpType::kWrite;
    if (is_write && LockedByOther(locks.rlocks, r.object, r.ta)) continue;
    if (conflicts.OlderWriteExists(r)) continue;
    if (is_write && conflicts.OlderRequestExists(r)) continue;
    qualified.push_back(r);
  }
  return qualified;
}

}  // namespace declsched::scheduler

// Authoring a custom Protocol backend. This is the runnable twin of
// docs/BACKENDS.md — the guide's snippets are lifted from here, so
// "compiles in the example" means "correct in the docs".
//
// The backend ("oldest-first"): SS2PL-safe qualification reusing the
// shared lock-analysis helpers, dispatching oldest transaction first. It
// keeps an incremental LockTableState fed by the scheduler's delta hooks,
// so its per-cycle cost is O(pending + delta), not O(pending + history).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/logging.h"
#include "scheduler/declarative_scheduler.h"
#include "scheduler/lock_table.h"
#include "scheduler/protocol.h"

using namespace declsched;             // NOLINT
using namespace declsched::scheduler;  // NOLINT

// --- a custom backend -------------------------------------------------------

// A Protocol is compiled against one store and evaluated once per cycle.
// Incremental state (the LockTableState here) is optional: the delta hooks
// default to no-ops, and a backend that skips them just pays a full
// BuildLockTable() scan per cycle instead. Everything below runs on the
// scheduler's cycle thread, so no locking is needed.
class OldestFirstProtocol : public Protocol {
 public:
  OldestFirstProtocol(ProtocolSpec spec, RequestStore* store)
      : Protocol(std::move(spec)), store_(store) {}

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override {
    // The store's typed mirror is the zero-copy way to read pending.
    RequestBatch pending;
    pending.reserve(context.store->pending_by_id().size());
    for (const auto& [id, request] : context.store->pending_by_id()) {
      pending.push_back(request);
    }
    // Refresh() is O(1) while the delta hooks below kept us synced; it
    // falls back to a full history scan if anything mutated the store
    // behind our back (the epoch/content-version staleness contract).
    const LockTable& locks = lock_state_.Refresh(*context.store);
    RequestBatch qualified = FilterSs2pl(locks, pending);
    std::stable_sort(qualified.begin(), qualified.end(),
                     [](const Request& a, const Request& b) {
                       return a.ta != b.ta ? a.ta < b.ta : a.id < b.id;
                     });
    return qualified;
  }

  // Delta hooks: the scheduler narrates each store mutation right after
  // making it. Apply the delta; the epoch handshake inside LockTableState
  // rejects anything out of order and forces a rebuild at next Refresh().
  void OnScheduled(const RequestBatch& batch) override {
    lock_state_.ApplyHistoryAppend(batch, *store_);
  }
  void OnFinished(const std::vector<txn::TxnId>& txns) override {
    lock_state_.ApplyFinished(txns, *store_);
  }

 private:
  RequestStore* store_;
  mutable LockTableState lock_state_;
};

int main() {
  // Registration: a backend is one compile function under a name; any
  // ProtocolSpec naming that backend now compiles through it. Register in
  // Global() (process-wide) or in a local factory passed via
  // DeclarativeScheduler::Options::factory.
  DS_CHECK_OK(ProtocolFactory::Global().RegisterBackend(
      "oldest-first",
      [](const ProtocolSpec& spec, RequestStore* store)
          -> Result<std::unique_ptr<Protocol>> {
        return std::unique_ptr<Protocol>(new OldestFirstProtocol(spec, store));
      }));

  // Drive the custom backend through an ordinary scheduler.
  ProtocolSpec spec;
  spec.name = "oldest-first";
  spec.backend = "oldest-first";
  spec.ordered = true;  // our result order is the dispatch order

  DeclarativeScheduler::Options options;
  options.protocol = spec;
  DeclarativeScheduler scheduler(std::move(options), /*server=*/nullptr);
  DS_CHECK_OK(scheduler.Init());

  auto submit = [&](txn::TxnId ta, int64_t intrata, txn::OpType op,
                    int64_t object, int priority) {
    Request r;
    r.ta = ta;
    r.intrata = intrata;
    r.op = op;
    r.object = object;
    r.priority = priority;
    scheduler.Submit(r, SimTime());
  };
  submit(2, 1, txn::OpType::kWrite, 10, 1);  // younger, same object...
  submit(1, 1, txn::OpType::kWrite, 10, 0);  // ...older txn goes first
  submit(3, 1, txn::OpType::kRead, 20, 1);

  auto stats = scheduler.RunCycle(SimTime());
  DS_CHECK(stats.ok());
  std::printf("cycle 1 dispatched %lld:\n",
              static_cast<long long>(stats->dispatched));
  for (const Request& r : scheduler.last_dispatched()) {
    std::printf("  %s\n", r.ToString().c_str());
  }

  // The same scheduler hot-swaps onto a built-in stage pipeline — protocols
  // are data, across backends; pending requests survive the switch.
  ProtocolSpec premium;
  premium.name = "premium-first";
  premium.backend = "composed";
  premium.text = "filter:ss2pl | rank:priority | cap:1";
  DS_CHECK_OK(scheduler.SwitchProtocol(premium));

  submit(4, 1, txn::OpType::kRead, 30, 2);  // waits: the cap admits one
  submit(5, 1, txn::OpType::kRead, 40, 0);  // premium: dispatched first
  stats = scheduler.RunCycle(SimTime());
  DS_CHECK(stats.ok());
  std::printf("cycle 2 (premium-first pipeline) dispatched %lld:\n",
              static_cast<long long>(stats->dispatched));
  for (const Request& r : scheduler.last_dispatched()) {
    std::printf("  %s\n", r.ToString().c_str());
  }
  return 0;
}

#include "scheduler/backends/sql_protocol.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/ir/lower_sql.h"
#include "sql/engine.h"

namespace declsched::scheduler {

namespace {

/// The interpreted path: the SELECT prepared once, re-run every cycle
/// through the SQL engine. Kept as the differential oracle for the
/// compiled path (and the semantics of last resort for queries outside
/// the IR dialect).
class InterpretedSqlProtocol : public Protocol {
 public:
  InterpretedSqlProtocol(ProtocolSpec spec, RequestStore* bound_store,
                         sql::PreparedQuery prepared, std::vector<int> cols)
      : Protocol(std::move(spec)),
        bound_store_(bound_store),
        prepared_(std::move(prepared)),
        cols_(std::move(cols)) {}

  Result<RequestBatch> Schedule(const ScheduleContext& context) const override {
    // The prepared plan reads the compile-time store's relations; silently
    // answering for a different context store would mix two stores' data.
    if (context.store != bound_store_) {
      return Status::InvalidArgument(
          "protocol " + spec_.name +
          ": scheduled against a different store than it was compiled for");
    }
    DS_ASSIGN_OR_RETURN(sql::QueryResult result, prepared_.Run());
    // One shared decode+SLA-join pass over the typed pending mirror.
    DS_ASSIGN_OR_RETURN(RequestBatch batch,
                        context.store->RowsToRequests(result.rows, cols_));
    if (!spec_.ordered) RankById(&batch);
    return batch;
  }

 private:
  RequestStore* bound_store_;
  sql::PreparedQuery prepared_;
  // Column positions of (id, ta, intrata, operation, object) in the SQL
  // result schema.
  std::vector<int> cols_;
};

Result<std::unique_ptr<Protocol>> CompileInterpreted(const ProtocolSpec& spec,
                                                     RequestStore* store) {
  DS_ASSIGN_OR_RETURN(sql::PreparedQuery prepared,
                      store->sql_engine()->PrepareQuery(spec.text));
  // Map the Table 2 columns by name in the result schema.
  const sql::OutSchema& schema = prepared.schema();
  std::vector<int> cols;
  for (const char* name : {"id", "ta", "intrata", "operation", "object"}) {
    int found = -1;
    for (int i = 0; i < static_cast<int>(schema.size()); ++i) {
      if (EqualsIgnoreCase(schema[static_cast<size_t>(i)].name, name)) {
        found = i;
        break;
      }
    }
    if (found < 0) {
      return Status::BindError(StrFormat("protocol %s: result lacks column '%s'",
                                         spec.name.c_str(), name));
    }
    cols.push_back(found);
  }
  return std::unique_ptr<Protocol>(new InterpretedSqlProtocol(
      spec, store, std::move(prepared), std::move(cols)));
}

}  // namespace

Result<std::unique_ptr<Protocol>> CompileSqlProtocol(const ProtocolSpec& spec,
                                                     RequestStore* store) {
  ProtocolSpec resolved = spec;
  constexpr const char kInterpPrefix[] = "interp:";
  if (resolved.text.rfind(kInterpPrefix, 0) == 0) {
    // Forced interpreter — the differential oracle variant.
    resolved.text = resolved.text.substr(sizeof(kInterpPrefix) - 1);
    return CompileInterpreted(resolved, store);
  }
  // Compile-first: lower the planned SELECT into the protocol IR. Queries
  // outside the IR dialect fall back to the interpreter (Unsupported is the
  // lowering's "not my dialect" signal; real errors — parse, bind — are
  // surfaced by the interpreted path below with the same text).
  Result<ir::ProtocolPlan> lowered =
      ir::LowerSqlSpec(resolved, *store->catalog());
  if (lowered.ok()) {
    return std::unique_ptr<Protocol>(new ir::CompiledProtocol(
        std::move(resolved), store, std::move(lowered).MoveValue()));
  }
  if (!lowered.status().IsUnsupported()) return lowered.status();
  return CompileInterpreted(resolved, store);
}

}  // namespace declsched::scheduler

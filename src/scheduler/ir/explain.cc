#include "scheduler/ir/explain.h"

#include <string>
#include <vector>

#include "datalog/engine.h"
#include "scheduler/ir/lower_datalog.h"
#include "scheduler/ir/lower_pipeline.h"
#include "scheduler/ir/lower_sql.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace declsched::scheduler::ir {

namespace {

const char* RankSourceName(RankSource source) {
  switch (source) {
    case RankSource::kId: return "id";
    case RankSource::kPriority: return "priority";
    case RankSource::kDeadline: return "deadline";
    case RankSource::kDeadlineIsZero: return "deadline=0?";
    case RankSource::kTenant: return "tenant";
    case RankSource::kTenantVtime: return "tenants.vtime";
    case RankSource::kTenantRound: return "tenants.round";
  }
  return "?";
}

const char* FieldName(RequestField field) {
  switch (field) {
    case RequestField::kId: return "id";
    case RequestField::kTa: return "ta";
    case RequestField::kIntrata: return "intrata";
    case RequestField::kObject: return "object";
    case RequestField::kPriority: return "priority";
    case RequestField::kDeadline: return "deadline";
    case RequestField::kArrival: return "arrival";
    case RequestField::kClient: return "client";
    case RequestField::kTenant: return "tenant";
    case RequestField::kOperation: return "operation";
  }
  return "?";
}

const char* CompareName(CompareKind cmp) {
  switch (cmp) {
    case CompareKind::kEq: return "=";
    case CompareKind::kNe: return "<>";
    case CompareKind::kLt: return "<";
    case CompareKind::kLe: return "<=";
    case CompareKind::kGt: return ">";
    case CompareKind::kGe: return ">=";
  }
  return "?";
}

std::string ConflictList(const ConflictRules& rules) {
  std::vector<const char*> parts;
  if (rules.wlock_blocks_all) parts.push_back("wlock->all");
  if (rules.wlock_blocks_writes) parts.push_back("wlock->w");
  if (rules.rlock_blocks_writes) parts.push_back("rlock->w");
  if (rules.pending_write_blocks_all) parts.push_back("pend:w->all");
  if (rules.pending_write_blocks_writes) parts.push_back("pend:w->w");
  if (rules.pending_any_blocks_writes) parts.push_back("pend:any->w");
  std::string out;
  for (const char* part : parts) {
    if (!out.empty()) out += ", ";
    out += part;
  }
  return out;
}

std::string NodeLine(const PlanNode& node) {
  switch (node.kind) {
    case PlanNode::Kind::kScanPending:
      return "ScanPending";
    case PlanNode::Kind::kFilter: {
      std::string out = "Filter [";
      for (size_t i = 0; i < node.predicates.size(); ++i) {
        const FieldPredicate& p = node.predicates[i];
        if (i > 0) out += " AND ";
        out += FieldName(p.field);
        out += ' ';
        out += CompareName(p.cmp);
        out += ' ';
        if (p.field == RequestField::kOperation) {
          out += '\'';
          out += txn::OpTypeToChar(p.op_value);
          out += '\'';
        } else {
          out += std::to_string(p.value);
        }
      }
      return out + "]";
    }
    case PlanNode::Kind::kLockAntiJoin:
      return "LockAntiJoin [" + ConflictList(node.conflicts) + "]";
    case PlanNode::Kind::kThrottleAntiJoin:
      return "ThrottleAntiJoin [tenants: cap/tokens]";
    case PlanNode::Kind::kTenantJoin:
      return std::string("TenantJoin ") +
             (node.left_outer ? "LEFT [tenants]" : "[tenants]");
    case PlanNode::Kind::kRank: {
      std::string out = "Rank [";
      for (size_t i = 0; i < node.keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += RankSourceName(node.keys[i].source);
      }
      if (node.missing_acct_last) out += "; unranked last";
      return out + "]";
    }
    case PlanNode::Kind::kLimit:
      return "Limit " + std::to_string(node.limit);
    case PlanNode::Kind::kStarvationBoost:
      return "StarvationBoost [oldest pending wait >= " +
             std::to_string(node.wait_us) + "us]";
  }
  return "?";
}

}  // namespace

std::string ExplainProtocolPlan(const ProtocolPlan& plan) {
  std::string out;
  int indent = 0;
  for (const PlanNode* node = plan.root.get(); node != nullptr;
       node = node->input.get(), ++indent) {
    out.append(static_cast<size_t>(indent) * 2, ' ');
    out += NodeLine(*node);
    out += '\n';
  }
  return out;
}

Result<std::string> ExplainProtocol(const ProtocolSpec& spec,
                                    RequestStore* store) {
  const std::string header =
      "protocol " + spec.name + " (backend: " + spec.backend + ")\n";
  if (spec.backend == "sql" || spec.backend == "datalog") {
    ProtocolSpec resolved = spec;
    bool force_interp = false;
    constexpr const char kInterpPrefix[] = "interp:";
    if (resolved.text.rfind(kInterpPrefix, 0) == 0) {
      force_interp = true;
      resolved.text = resolved.text.substr(sizeof(kInterpPrefix) - 1);
    }
    Result<ProtocolPlan> lowered =
        spec.backend == "sql" ? LowerSqlSpec(resolved, *store->catalog())
                              : LowerDatalogSpec(resolved);
    if (!force_interp && lowered.ok()) {
      return header + "compiled protocol IR:\n" + ExplainProtocolPlan(*lowered);
    }
    std::string out = header;
    out += force_interp ? "interpreted (forced by interp: prefix)\n"
                        : "interpreted (lowering failed: " +
                              lowered.status().message() + ")\n";
    if (spec.backend == "sql") {
      DS_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                          sql::ParseSelect(resolved.text));
      DS_ASSIGN_OR_RETURN(sql::PreparedPlan plan,
                          sql::PlanSelectStatement(*store->catalog(), *stmt));
      out += "physical SQL plan:\n" + sql::ExplainPlan(plan);
    } else {
      DS_ASSIGN_OR_RETURN(datalog::DatalogProgram program,
                          datalog::DatalogProgram::Create(resolved.text));
      out += "datalog program (" + std::to_string(program.num_strata()) +
             " strata):\n" + program.ToString();
    }
    return out;
  }
  if (spec.backend == "composed") {
    DS_ASSIGN_OR_RETURN(ProtocolPlan lowered, LowerPipelineSpec(spec));
    return header + "stage pipeline: " + spec.text + "\n" +
           "compiled protocol IR:\n" + ExplainProtocolPlan(lowered);
  }
  return header;
}

}  // namespace declsched::scheduler::ir

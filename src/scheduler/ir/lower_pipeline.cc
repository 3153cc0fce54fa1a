#include "scheduler/ir/lower_pipeline.h"

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "scheduler/ir/optimize.h"

namespace declsched::scheduler::ir {

namespace {

/// Parses a strictly positive decimal integer stage argument.
bool ParsePositive(const std::string& arg, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(arg.c_str(), &end, 10);
  if (arg.empty() || end == nullptr || *end != '\0' || v <= 0) return false;
  *out = v;
  return true;
}

/// Builds pipeline nodes on top of the chain, scan first.
class Builder {
 public:
  Builder() : chain_(PlanNode::Make(PlanNode::Kind::kScanPending)) {}

  PlanNode* Push(PlanNode::Kind kind) {
    auto node = PlanNode::Make(kind);
    node->input = std::move(chain_);
    chain_ = std::move(node);
    return chain_.get();
  }

  void PushRank(std::vector<RankSource> sources) {
    PlanNode* rank = Push(PlanNode::Kind::kRank);
    for (RankSource source : sources) rank->keys.push_back(RankKey{source});
    ordered_ = true;
  }

  /// Appends the operators for one `kind:arg` stage.
  Status Stage(const std::string& kind, const std::string& arg) {
    if (kind == "filter") {
      if (arg == "none") return Status::OK();
      if (arg != "ss2pl" && arg != "read-committed") {
        return Status::BindError("unknown filter '" + arg +
                                 "' (want ss2pl, read-committed, or none)");
      }
      Push(PlanNode::Kind::kLockAntiJoin)->conflicts =
          arg == "ss2pl" ? ConflictRules::Ss2pl()
                         : ConflictRules::ReadCommitted();
      return Status::OK();
    }
    if (kind == "rank") {
      if (arg == "fcfs") {
        PushRank({RankSource::kId});
      } else if (arg == "priority") {
        PushRank({RankSource::kPriority, RankSource::kId});
      } else if (arg == "edf") {
        PushRank({RankSource::kDeadlineIsZero, RankSource::kDeadline,
                  RankSource::kId});
      } else {
        return Status::BindError("unknown rank '" + arg +
                                 "' (want fcfs, priority, or edf)");
      }
      return Status::OK();
    }
    if (kind == "cap") {
      int64_t limit = 0;
      if (!ParsePositive(arg, &limit)) {
        return Status::BindError("cap needs a positive integer, got '" + arg +
                                 "'");
      }
      Push(PlanNode::Kind::kLimit)->limit = limit;
      return Status::OK();
    }
    if (kind == "fair_rank") {
      if (arg != "vtime" && arg != "round") {
        return Status::BindError("unknown fair_rank '" + arg +
                                 "' (want vtime or round)");
      }
      // LEFT join: a request whose tenant has no tenants row stays in the
      // stream and ranks at vtime/round 0 (missing_acct_last stays false).
      Push(PlanNode::Kind::kTenantJoin)->left_outer = true;
      if (arg == "vtime") {
        PushRank({RankSource::kTenantVtime, RankSource::kId});
      } else {
        PushRank({RankSource::kTenantRound, RankSource::kTenant,
                  RankSource::kId});
      }
      return Status::OK();
    }
    if (kind == "tenant_cap") {
      if (!arg.empty()) {
        return Status::BindError(
            "tenant_cap takes no argument (per-tenant caps live in the "
            "tenants relation), got '" +
            arg + "'");
      }
      Push(PlanNode::Kind::kThrottleAntiJoin);
      return Status::OK();
    }
    if (kind == "starvation_boost") {
      int64_t wait_us = 0;
      if (!ParsePositive(arg, &wait_us)) {
        return Status::BindError(
            "starvation_boost needs a positive wait in micros, got '" + arg +
            "'");
      }
      Push(PlanNode::Kind::kStarvationBoost)->wait_us = wait_us;
      ordered_ = true;
      return Status::OK();
    }
    return Status::BindError("unknown stage kind '" + kind + "'");
  }

  std::unique_ptr<PlanNode> TakeChain() { return std::move(chain_); }
  bool ordered() const { return ordered_; }

 private:
  std::unique_ptr<PlanNode> chain_;
  bool ordered_ = false;
};

}  // namespace

Result<ProtocolPlan> LowerPipelineSpec(const ProtocolSpec& spec) {
  Builder builder;
  int stages = 0;
  for (const std::string& piece : Split(spec.text, '|')) {
    const std::string descriptor(Trim(piece));
    if (descriptor.empty()) continue;
    const size_t colon = descriptor.find(':');
    const std::string kind(Trim(descriptor.substr(0, colon)));
    const std::string arg =
        colon == std::string::npos
            ? ""
            : std::string(Trim(descriptor.substr(colon + 1)));
    const Status status = builder.Stage(kind, arg);
    if (!status.ok()) {
      return Status::BindError(StrFormat("protocol %s: stage '%s': %s",
                                         spec.name.c_str(), descriptor.c_str(),
                                         status.message().c_str()));
    }
    ++stages;
  }
  if (stages == 0) {
    return Status::BindError(
        StrFormat("protocol %s: empty stage pipeline", spec.name.c_str()));
  }
  ProtocolPlan plan;
  plan.source = "pipeline";
  plan.ordered = spec.ordered || builder.ordered();
  plan.root = builder.TakeChain();
  OptimizePlan(&plan);
  return plan;
}

}  // namespace declsched::scheduler::ir

#include "scheduler/backends/composed_protocol.h"

#include <utility>

#include "scheduler/ir/compiled_protocol.h"
#include "scheduler/ir/lower_pipeline.h"

namespace declsched::scheduler {

Result<std::unique_ptr<Protocol>> CompileComposedProtocol(
    const ProtocolSpec& spec, RequestStore* store) {
  DS_ASSIGN_OR_RETURN(ir::ProtocolPlan plan, ir::LowerPipelineSpec(spec));
  // A rank-like stage makes the pipeline's order the dispatch order.
  ProtocolSpec resolved = spec;
  resolved.ordered = plan.ordered;
  return std::unique_ptr<Protocol>(
      new ir::CompiledProtocol(std::move(resolved), store, std::move(plan)));
}

}  // namespace declsched::scheduler

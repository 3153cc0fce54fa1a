// Composed backend: a protocol as a pipeline of stages over the pending
// batch, unlocking scenario mixes ("read-committed + EDF + admission cap")
// without writing new SQL. The spec's `text` is a '|'-separated pipeline of
// `kind:arg` stages ("filter:ss2pl | rank:edf | cap:16"; the stage kinds are
// listed in scheduler/ir/lower_pipeline.h).
//
// The pipeline is lowered into the protocol IR at compile time
// (ir::LowerPipelineSpec) and runs as an ir::CompiledProtocol — the same
// runtime, incremental state and executors as the compiled SQL and Datalog
// specs.

#ifndef DECLSCHED_SCHEDULER_BACKENDS_COMPOSED_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_BACKENDS_COMPOSED_PROTOCOL_H_

#include <memory>

#include "scheduler/protocol.h"

namespace declsched::scheduler {

Result<std::unique_ptr<Protocol>> CompileComposedProtocol(
    const ProtocolSpec& spec, RequestStore* store);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_BACKENDS_COMPOSED_PROTOCOL_H_

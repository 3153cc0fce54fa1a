// SQL backend: the protocol text is a SELECT over the requests/history
// relations (paper Listing 1 style).
//
// Compile-first: the planned SELECT is lowered into the protocol IR
// (scheduler/ir/) and executed over the store's typed mirrors with
// incremental lock state, at O(pending + delta) per cycle. Queries outside
// the IR dialect fall back transparently to the interpreted engine
// (prepared once, re-run every cycle); prefixing the
// spec text with "interp:" forces the interpreter, the differential-oracle
// variant the equivalence tests and benches compare against.

#ifndef DECLSCHED_SCHEDULER_BACKENDS_SQL_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_BACKENDS_SQL_PROTOCOL_H_

#include <memory>

#include "scheduler/protocol.h"

namespace declsched::scheduler {

Result<std::unique_ptr<Protocol>> CompileSqlProtocol(const ProtocolSpec& spec,
                                                     RequestStore* store);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_BACKENDS_SQL_PROTOCOL_H_

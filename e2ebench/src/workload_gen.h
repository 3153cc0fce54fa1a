// Seeded request and arrival generator for the end-to-end benchmark.
//
// The benchmark owns its inputs: a workload name and a seed fully determine
// every request body and every arrival gap, so two runs on one seed send the
// same bytes at the same offsets (checked by the self-test). The program under
// test only ever sees the generated requests.

#ifndef E2EBENCH_WORKLOAD_GEN_H_
#define E2EBENCH_WORKLOAD_GEN_H_

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "net/wire/wire_codec.h"

namespace e2ebench {

enum class Transport { kBinary, kHttp };

/// One workload: which transport carries the requests. Both send the same
/// generated requests; see README.md for why each was chosen.
struct WorkloadShape {
  std::string name;
  Transport transport = Transport::kBinary;
};

/// Table size of the served database (net_server's fixed 100k rows).
constexpr int64_t kTableRows = 100000;
/// Every request is one transaction of kOpsPerTxn writes on distinct
/// objects, uniform over the table, for tenant kTenant.
constexpr int kTxnsPerRequest = 1;
constexpr int kOpsPerTxn = 4;
constexpr int64_t kTenant = 1;

/// The benchmark workloads by name; false if unknown.
bool LookupWorkload(const std::string& name, WorkloadShape* out);

/// Expected acknowledgement counters of one request.
struct ExpectedAck {
  int64_t txns = 0;
  int64_t statements = 0;
  int64_t dispatched = 0;  ///< ops + one commit per transaction
};
ExpectedAck ExpectedFor(const declsched::net::wire::WireSubmit& submit);

/// Deterministic request stream: request i depends only on (seed, i
/// requests drawn before it).
class RequestGenerator {
 public:
  explicit RequestGenerator(uint64_t seed);
  declsched::net::wire::WireSubmit Next();

 private:
  declsched::Rng rng_;
};

/// Poisson arrivals at a fixed rate: exponential gaps from a seeded stream
/// private to one rate step, so a step's schedule does not depend on how
/// many requests earlier steps sent.
class ArrivalSchedule {
 public:
  ArrivalSchedule(uint64_t seed, int step_index, double rate_per_s);
  /// Next inter-arrival gap in nanoseconds (>= 1).
  int64_t NextGapNs();

 private:
  declsched::Rng rng_;
  double mean_gap_ns_;
};

/// Wire SUBMIT frame for `submit` with the given request id.
void AppendWireSubmit(std::string* out,
                      const declsched::net::wire::WireSubmit& submit,
                      uint64_t request_id);
/// Pipelined HTTP/1.1 POST /v1/submit with the JSON body.
void AppendHttpSubmit(std::string* out,
                      const declsched::net::wire::WireSubmit& submit);

/// FNV-1a digest of the wire bytes of the first `count` requests and of the
/// first `count` arrival gaps of step 0 at 1000 req/s — equal digests mean
/// byte-identical generated inputs.
uint64_t GeneratorDigest(const WorkloadShape& shape, uint64_t seed,
                         int64_t count);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOAD_GEN_H_

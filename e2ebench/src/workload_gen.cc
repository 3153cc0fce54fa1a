#include "workload_gen.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

namespace wire = declsched::net::wire;

bool LookupWorkload(const std::string& name, WorkloadShape* out) {
  if (name == "point-binary") {
    out->transport = Transport::kBinary;
  } else if (name == "point-http") {
    out->transport = Transport::kHttp;
  } else {
    return false;
  }
  out->name = name;
  return true;
}

ExpectedAck ExpectedFor(const wire::WireSubmit& submit) {
  ExpectedAck ack;
  ack.txns = static_cast<int64_t>(submit.txns.size());
  for (const wire::WireTxn& txn : submit.txns) {
    ack.statements += static_cast<int64_t>(txn.ops.size());
  }
  ack.dispatched = ack.statements + ack.txns;
  return ack;
}

RequestGenerator::RequestGenerator(uint64_t seed)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 0x5eed) {}

wire::WireSubmit RequestGenerator::Next() {
  wire::WireSubmit submit;
  submit.tenant = kTenant;
  submit.txns.resize(kTxnsPerRequest);
  std::vector<int64_t> objects;
  for (wire::WireTxn& txn : submit.txns) {
    objects.clear();
    while (static_cast<int>(objects.size()) < kOpsPerTxn) {
      const int64_t object = rng_.UniformInt(0, kTableRows - 1);
      if (std::find(objects.begin(), objects.end(), object) == objects.end()) {
        objects.push_back(object);
      }
    }
    // The front door's deadlock-free contract: ascending objects.
    std::sort(objects.begin(), objects.end());
    txn.ops.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      txn.ops[i].object = objects[i];
      txn.ops[i].write = true;
    }
  }
  return submit;
}

ArrivalSchedule::ArrivalSchedule(uint64_t seed, int step_index,
                                 double rate_per_s)
    : rng_(seed * 0xbf58476d1ce4e5b9ULL +
           static_cast<uint64_t>(step_index) * 0x94d049bb133111ebULL + 1),
      mean_gap_ns_(1e9 / rate_per_s) {}

int64_t ArrivalSchedule::NextGapNs() {
  // Inverse-CDF exponential; 1 - u lies in (0, 1], so the log is finite.
  const double u = rng_.NextDouble();
  const double gap = -std::log(1.0 - u) * mean_gap_ns_;
  return std::max<int64_t>(1, static_cast<int64_t>(gap));
}

void AppendWireSubmit(std::string* out, const wire::WireSubmit& submit,
                      uint64_t request_id) {
  wire::AppendFrame(out, wire::WireOp::kSubmit, 0, request_id,
                    wire::EncodeSubmitBody(submit));
}

void AppendHttpSubmit(std::string* out, const wire::WireSubmit& submit) {
  std::string body = "{\"tenant\":" + std::to_string(submit.tenant) +
                     ",\"txns\":[";
  for (size_t t = 0; t < submit.txns.size(); ++t) {
    if (t > 0) body += ',';
    body += "{\"ops\":[";
    const wire::WireTxn& txn = submit.txns[t];
    for (size_t i = 0; i < txn.ops.size(); ++i) {
      if (i > 0) body += ',';
      body += txn.ops[i].write ? "{\"op\":\"write\",\"object\":"
                               : "{\"op\":\"read\",\"object\":";
      body += std::to_string(txn.ops[i].object);
      body += '}';
    }
    body += "]}";
  }
  body += "]}";
  *out += "POST /v1/submit HTTP/1.1\r\nHost: bench\r\n"
          "Content-Type: application/json\r\nContent-Length: ";
  *out += std::to_string(body.size());
  *out += "\r\n\r\n";
  *out += body;
}

uint64_t GeneratorDigest(const WorkloadShape& shape, uint64_t seed,
                         int64_t count) {
  RequestGenerator gen(seed);
  ArrivalSchedule arrivals(seed, 0, 1000.0);
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  std::string bytes;
  for (int64_t i = 0; i < count; ++i) {
    bytes.clear();
    const wire::WireSubmit submit = gen.Next();
    if (shape.transport == Transport::kBinary) {
      AppendWireSubmit(&bytes, submit, static_cast<uint64_t>(i) + 1);
    } else {
      AppendHttpSubmit(&bytes, submit);
    }
    bytes += std::to_string(arrivals.NextGapNs());
    mix(bytes);
  }
  return h;
}

}  // namespace e2ebench

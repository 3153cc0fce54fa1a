#include "scheduler/protocol.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "scheduler/backends/composed_protocol.h"
#include "scheduler/backends/datalog_protocol.h"
#include "scheduler/backends/passthrough_protocol.h"
#include "scheduler/backends/sql_protocol.h"

namespace declsched::scheduler {

int ProtocolSpec::CodeSize() const {
  if (backend == "passthrough") return 0;
  if (backend == "composed") {
    int stages = 0;
    for (const std::string& stage : Split(text, '|')) {
      if (!Trim(stage).empty()) ++stages;
    }
    return stages;
  }
  int count = 0;
  for (const std::string& raw : Split(text, '\n')) {
    const std::string_view line = Trim(raw);
    if (line.empty()) continue;
    if (backend == "sql" && line.substr(0, 2) == "--") continue;
    if (backend == "datalog" && line[0] == '%') continue;
    ++count;
  }
  return count;
}

ProtocolFactory& ProtocolFactory::Global() {
  static ProtocolFactory* factory = [] {
    auto* f = new ProtocolFactory();
    DS_CHECK_OK(f->RegisterBackend("sql", CompileSqlProtocol));
    DS_CHECK_OK(f->RegisterBackend("datalog", CompileDatalogProtocol));
    DS_CHECK_OK(f->RegisterBackend("passthrough", CompilePassthroughProtocol));
    DS_CHECK_OK(f->RegisterBackend("composed", CompileComposedProtocol));
    return f;
  }();
  return *factory;
}

Status ProtocolFactory::RegisterBackend(const std::string& backend,
                                        CompileFn compile) {
  if (backend.empty()) {
    return Status::InvalidArgument("backend name must be non-empty");
  }
  if (compile == nullptr) {
    return Status::InvalidArgument("backend compile function must be set");
  }
  if (!backends_.emplace(backend, std::move(compile)).second) {
    return Status::AlreadyExists("backend already registered: " + backend);
  }
  return Status::OK();
}

bool ProtocolFactory::HasBackend(const std::string& backend) const {
  return backends_.count(backend) > 0;
}

std::vector<std::string> ProtocolFactory::Backends() const {
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& [name, fn] : backends_) names.push_back(name);
  return names;
}

Result<std::unique_ptr<Protocol>> ProtocolFactory::Compile(
    const ProtocolSpec& spec, RequestStore* store) const {
  if (store == nullptr) {
    return Status::InvalidArgument("protocol compilation needs a RequestStore");
  }
  auto it = backends_.find(spec.backend);
  if (it == backends_.end()) {
    return Status::NotFound(StrFormat("protocol %s: no backend named '%s'",
                                      spec.name.c_str(), spec.backend.c_str()));
  }
  return it->second(spec, store);
}

void RankById(RequestBatch* batch) {
  std::sort(batch->begin(), batch->end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });
}

}  // namespace declsched::scheduler

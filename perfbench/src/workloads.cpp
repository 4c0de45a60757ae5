#include "workloads.hpp"

#include <stdexcept>

#include "common.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "grid_shearsort", "seq_engine", "service_federated", "stream_sort"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "grid_shearsort") return make_grid_workload(options);
  if (name == "seq_engine") return make_seq_workload(options);
  if (name == "service_federated") return make_service_workload(options);
  if (name == "stream_sort") return make_stream_workload(options);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench

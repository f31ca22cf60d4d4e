#include "src/metrics/registry.h"

#include "src/common/check.h"

namespace hlrc {

namespace {

template <typename T>
T* Resolve(std::map<std::string, std::unique_ptr<std::vector<T>>>* store,
           const std::string& name, NodeId node, int nodes) {
  HLRC_CHECK(node >= 0 && node < nodes);
  auto it = store->find(name);
  if (it == store->end()) {
    it = store->emplace(name, std::make_unique<std::vector<T>>(static_cast<size_t>(nodes)))
             .first;
  }
  return &(*it->second)[static_cast<size_t>(node)];
}

}  // namespace

int64_t* MetricsRegistry::Counter(const std::string& name, NodeId node) {
  return Resolve(&counters_, name, node, nodes_);
}

Histogram* MetricsRegistry::Histo(const std::string& name, NodeId node) {
  return Resolve(&histograms_, name, node, nodes_);
}

Histogram MetricsRegistry::MergedHisto(const std::string& name) const {
  Histogram out;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return out;
  }
  for (const Histogram& h : *it->second) {
    out.Merge(h);
  }
  return out;
}

int64_t MetricsRegistry::CounterTotal(const std::string& name) const {
  int64_t total = 0;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    return 0;
  }
  for (int64_t v : *it->second) {
    total += v;
  }
  return total;
}

}  // namespace hlrc

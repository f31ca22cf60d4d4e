#include "src/fault/fault_plan.h"

#include <cstdio>
#include <limits>

#include "src/common/cli.h"

namespace hlrc {

namespace {

// Parses a comma-separated node-id list. Empty input yields an empty group.
bool ParseGroup(const std::string& s, std::vector<NodeId>* out, std::string* error) {
  out->clear();
  for (const std::string& tok : SplitList(s)) {
    if (!ParseInt(tok, &out->emplace_back(), 0)) {
      *error = "bad node id '" + tok + "'";
      return false;
    }
  }
  return true;
}

bool ParseMillis(const std::string& s, SimTime* out, std::string* error) {
  double ms = 0;
  // The upper bound keeps the nanosecond conversion inside SimTime.
  if (!ParseReal(s, &ms, 0, static_cast<double>(std::numeric_limits<SimTime>::max()) / 1e6)) {
    *error = "bad time '" + s + "' (expected milliseconds)";
    return false;
  }
  *out = static_cast<SimTime>(ms * 1e6);
  return true;
}

}  // namespace

bool ParsePartitionSpec(const std::string& spec, PartitionWindow* out, std::string* error) {
  std::string err;
  if (error == nullptr) {
    error = &err;
  }
  const size_t at = spec.find('@');
  if (at == std::string::npos) {
    *error = "missing '@' in partition spec (want a-b@t0..t1)";
    return false;
  }
  const std::string groups = spec.substr(0, at);
  const std::string times = spec.substr(at + 1);

  const size_t dash = groups.find('-');
  if (dash == std::string::npos) {
    *error = "missing '-' between node groups";
    return false;
  }
  PartitionWindow w;
  if (!ParseGroup(groups.substr(0, dash), &w.group_a, error) ||
      !ParseGroup(groups.substr(dash + 1), &w.group_b, error)) {
    return false;
  }
  if (w.group_a.empty()) {
    *error = "group_a must not be empty";
    return false;
  }

  const size_t dots = times.find("..");
  if (dots == std::string::npos) {
    *error = "missing '..' between start and end times";
    return false;
  }
  if (!ParseMillis(times.substr(0, dots), &w.start, error) ||
      !ParseMillis(times.substr(dots + 2), &w.end, error)) {
    return false;
  }
  if (w.start > w.end) {
    *error = "partition window ends before it starts";
    return false;
  }
  *out = w;
  return true;
}

std::string FaultPlanSummary(const FaultPlan& plan) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "drop=%.4g corrupt=%.4g dup=%.4g delay=%.4g partitions=%zu seed=%llu",
                plan.drop_prob, plan.corrupt_prob, plan.dup_prob, plan.delay_prob,
                plan.partitions.size(), static_cast<unsigned long long>(plan.seed));
  return buf;
}

}  // namespace hlrc

// Reproduces paper Table 3: costs of basic operations on the (simulated)
// Paragon, plus the derived minimum page-miss and lock-acquire costs from
// §4.3. Host speed is measured end to end by perfbench/, not here.
#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/net/network.h"
#include "src/proto/cost_model.h"

namespace hlrc {
namespace {

constexpr int64_t kPage = 8192;  // The Paragon's OS page size.

void PrintModelTables() {
  const CostModel costs;
  const NetworkConfig net;

  Table t3("=== Table 3: Timings for basic operations (model, 8 KB page) ===");
  t3.SetHeader({"Operation", "Time (us)"});
  t3.AddRow({"Message latency (one way)", Table::Fmt(ToMicros(net.base_latency), 0)});
  t3.AddRow({"Page transfer (8 KB)", Table::Fmt(ToMicros(kPage * net.per_byte), 0)});
  t3.AddRow({"Receive interrupt", Table::Fmt(ToMicros(costs.receive_interrupt), 0)});
  t3.AddRow({"Twin copy", Table::Fmt(ToMicros(costs.TwinCost(kPage)), 0)});
  t3.AddRow({"Diff creation", Table::Fmt(ToMicros(costs.DiffCreateCost(kPage, 0)), 0) + "-" +
                                  Table::Fmt(ToMicros(costs.DiffCreateCost(kPage, kPage)), 0)});
  t3.AddRow({"Diff application", "0-" + Table::Fmt(ToMicros(costs.DiffApplyCost(kPage)), 0)});
  t3.AddRow({"Page fault", Table::Fmt(ToMicros(costs.page_fault), 0)});
  t3.AddRow({"Page invalidation", Table::Fmt(ToMicros(costs.page_invalidate), 0)});
  t3.AddRow({"Page protection", Table::Fmt(ToMicros(costs.page_protect), 0)});
  t3.Print();

  // Derived quantities from §4.3.
  const double lat = ToMicros(net.base_latency);
  const double interrupt = ToMicros(costs.receive_interrupt);
  const double xfer = ToMicros(kPage * net.per_byte);
  const double fault = ToMicros(costs.page_fault);
  const double diff1 = ToMicros(costs.DiffCreateCost(kPage, 8));

  Table t3b("\n=== Derived minimum costs (paper §4.3) ===");
  t3b.SetHeader({"Operation", "Model (us)", "Paper (us)"});
  t3b.AddRow({"HLRC page miss (non-overlapped)",
              Table::Fmt(fault + lat + interrupt + xfer + lat, 0), "1172"});
  t3b.AddRow({"HLRC page miss (overlapped)", Table::Fmt(fault + lat + xfer + lat, 0), "482"});
  t3b.AddRow({"LRC single-word-diff miss (non-overlapped)",
              Table::Fmt(fault + lat + interrupt + diff1 + lat, 0), "~1130"});
  t3b.AddRow({"LRC single-word-diff miss (overlapped)",
              Table::Fmt(fault + lat + diff1 + lat, 0), "440"});
  t3b.AddRow({"Remote lock acquire (via manager)", Table::Fmt(3 * lat + 2 * interrupt, 0),
              "~1550"});
  t3b.AddRow({"Remote lock acquire (co-processor, hypothetical)", Table::Fmt(3 * lat, 0),
              "150"});
  t3b.Print();
}

}  // namespace
}  // namespace hlrc

int main(int argc, char** argv) {
  // The shared bench flags (--help, usage errors); the model reads none.
  hlrc::bench::ParseArgs(argc, argv);
  hlrc::PrintModelTables();
  return 0;
}

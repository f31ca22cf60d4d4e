#include "src/sim/processor.h"

#include <gtest/gtest.h>

#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace hlrc {
namespace {

TEST(Processor, AppExecutionTakesItsDuration) {
  Engine e;
  Processor p(&e, "cpu");
  SimTime end = -1;
  SpawnDetached([](Engine* eng, Processor* proc, SimTime* t) -> Task<void> {
    co_await proc->ExecuteApp(Micros(100));
    *t = eng->Now();
  }(&e, &p, &end));
  e.Run();
  EXPECT_EQ(end, Micros(100));
  EXPECT_EQ(p.busy().Get(BusyCat::kCompute), Micros(100));
}

TEST(Processor, ServicePreemptsAndDelaysApp) {
  Engine e;
  Processor p(&e, "cpu");
  SimTime end = -1;
  SpawnDetached([](Engine* eng, Processor* proc, SimTime* t) -> Task<void> {
    co_await proc->ExecuteApp(Micros(100));
    *t = eng->Now();
  }(&e, &p, &end));
  // Interrupt arrives mid-execution.
  bool serviced = false;
  e.Schedule(Micros(40), [&] {
    p.RunService(Micros(20), BusyCat::kInterrupt, [&] { serviced = true; });
  });
  e.Run();
  EXPECT_TRUE(serviced);
  EXPECT_EQ(end, Micros(120));  // 100 of work stretched by 20 of service.
  EXPECT_EQ(p.busy().Get(BusyCat::kCompute), Micros(100));
  EXPECT_EQ(p.busy().Get(BusyCat::kInterrupt), Micros(20));
}

TEST(Processor, ServicesRunFifo) {
  Engine e;
  Processor p(&e, "cop");
  std::vector<int> order;
  e.Schedule(0, [&] {
    p.RunService(Micros(10), BusyCat::kService, [&] { order.push_back(1); });
    p.RunService(Micros(10), BusyCat::kService, [&] { order.push_back(2); });
    p.RunService(Micros(10), BusyCat::kService, [&] { order.push_back(3); });
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), Micros(30));
}

TEST(Processor, ServiceWhileIdleRunsImmediately) {
  Engine e;
  Processor p(&e, "cpu");
  SimTime done_at = -1;
  e.Schedule(Micros(5), [&] {
    p.RunService(Micros(7), BusyCat::kService, [&] { done_at = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(done_at, Micros(12));
}

TEST(Processor, AppAfterServicesWaits) {
  Engine e;
  Processor p(&e, "cpu");
  // Service running when app work is requested: app starts after.
  SimTime end = -1;
  e.Schedule(0, [&] { p.RunService(Micros(50), BusyCat::kService, [] {}); });
  e.Schedule(Micros(10), [&] {
    SpawnDetached([](Engine* eng, Processor* proc, SimTime* t) -> Task<void> {
      co_await proc->ExecuteApp(Micros(10));
      *t = eng->Now();
    }(&e, &p, &end));
  });
  e.Run();
  EXPECT_EQ(end, Micros(60));
}

TEST(Processor, BackToBackInterruptsExtendAppProportionally) {
  Engine e;
  Processor p(&e, "cpu");
  SimTime end = -1;
  SpawnDetached([](Engine* eng, Processor* proc, SimTime* t) -> Task<void> {
    co_await proc->ExecuteApp(Micros(100));
    *t = eng->Now();
  }(&e, &p, &end));
  for (int i = 0; i < 5; ++i) {
    e.Schedule(Micros(10 + i), [&] { p.RunService(Micros(10), BusyCat::kInterrupt, [] {}); });
  }
  e.Run();
  EXPECT_EQ(end, Micros(150));
  EXPECT_EQ(p.busy().Total(), Micros(150));
}

TEST(Processor, ZeroCostServiceStillRunsInOrder) {
  Engine e;
  Processor p(&e, "cpu");
  std::vector<int> order;
  e.Schedule(0, [&] {
    p.RunService(0, BusyCat::kService, [&] { order.push_back(1); });
    p.RunService(Micros(1), BusyCat::kService, [&] { order.push_back(2); });
    p.RunService(0, BusyCat::kService, [&] { order.push_back(3); });
  });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace hlrc

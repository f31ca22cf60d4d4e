#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <vector>

namespace hlrc {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.Now(), 0);
  EXPECT_TRUE(e.Idle());
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.Schedule(Micros(30), [&] { order.push_back(3); });
  e.Schedule(Micros(10), [&] { order.push_back(1); });
  e.Schedule(Micros(20), [&] { order.push_back(2); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.Now(), Micros(30));
}

TEST(Engine, SimultaneousEventsRunFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.Schedule(Micros(5), [&order, i] { order.push_back(i); });
  }
  e.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(Engine, NestedSchedulingAdvancesTime) {
  Engine e;
  SimTime inner_time = -1;
  e.Schedule(Micros(10), [&] {
    e.Schedule(Micros(5), [&] { inner_time = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(inner_time, Micros(15));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const Engine::EventId id = e.Schedule(Micros(10), [&] { ran = true; });
  e.Cancel(id);
  e.Run();
  EXPECT_FALSE(ran);
  // Cancelled events do not advance time.
  EXPECT_EQ(e.Now(), 0);
}

TEST(Engine, CancelIsIdempotentAndSafeAfterRun) {
  Engine e;
  const Engine::EventId id = e.Schedule(0, [] {});
  e.Run();
  e.Cancel(id);  // No-op.
  e.Cancel(id);
  EXPECT_TRUE(e.Idle());
}

TEST(Engine, ZeroDelayRunsAtCurrentTime) {
  Engine e;
  SimTime t = -1;
  e.Schedule(Micros(7), [&] {
    e.Schedule(0, [&] { t = e.Now(); });
  });
  e.Run();
  EXPECT_EQ(t, Micros(7));
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.Step());
  e.Schedule(0, [] {});
  EXPECT_TRUE(e.Step());
  EXPECT_FALSE(e.Step());
}

TEST(Engine, CountsProcessedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) {
    e.Schedule(i, [] {});
  }
  e.Run();
  EXPECT_EQ(e.events_processed(), 5);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run = [] {
    Engine e;
    std::vector<SimTime> times;
    for (int i = 0; i < 50; ++i) {
      e.Schedule((i * 37) % 11, [&times, &e] { times.push_back(e.Now()); });
    }
    e.Run();
    return times;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hlrc

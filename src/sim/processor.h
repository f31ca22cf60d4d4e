// Simulated processor with two priority classes of work.
//
// Each Paragon node has a compute processor and a communication co-processor.
// Both are modelled by this class:
//
//  * Application work (ExecuteApp) runs at low priority. Only one application
//    execution can be in flight: the node's program is a single coroutine.
//  * Service work (RunService) models interrupt/request handlers. Services
//    preempt in-progress application work (the remaining application time is
//    resumed once all queued services finish) and run FIFO among themselves.
//    This matches the Paragon: a receive interrupt suspends computation, and
//    the co-processor's dispatch loop serves requests one at a time.
//
// The processor accounts busy time per category; application blocked time
// (data / lock / barrier waits) is the protocols' WaitScope accounting.
#ifndef SRC_SIM_PROCESSOR_H_
#define SRC_SIM_PROCESSOR_H_

#include <deque>
#include <functional>
#include <string>

#include "src/common/check.h"
#include "src/sim/completion.h"
#include "src/sim/engine.h"
#include "src/sim/time_categories.h"

namespace hlrc {

class Processor {
 public:
  Processor(Engine* engine, std::string name);
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  // Awaitable: occupies the processor for `duration` of application work,
  // possibly stretched by preempting services. At most one application
  // execution may be active.
  class AppExecution {
   public:
    AppExecution(Processor* p, SimTime duration, BusyCat cat)
        : proc_(p), duration_(duration), cat_(cat) {}
    bool await_ready() const noexcept { return duration_ <= 0; }
    void await_suspend(std::coroutine_handle<> h) { proc_->StartApp(duration_, cat_, h); }
    void await_resume() const noexcept {}

   private:
    Processor* proc_;
    SimTime duration_;
    BusyCat cat_;
  };

  AppExecution ExecuteApp(SimTime duration, BusyCat cat = BusyCat::kCompute) {
    return AppExecution(this, duration, cat);
  }

  // Enqueues service work that occupies the processor for `duration` and then
  // invokes `done`. Services preempt application work and run FIFO.
  void RunService(SimTime duration, BusyCat cat, std::function<void()> done);

  // Total busy time by category.
  const BusyBreakdown& busy() const { return busy_; }

  const std::string& name() const { return name_; }

 private:
  friend class AppExecution;

  void StartApp(SimTime duration, BusyCat cat, std::coroutine_handle<> waiter);
  void StartAppSlice();
  void FinishApp();
  void PreemptApp();
  void StartNextService();

  Engine* engine_;
  std::string name_;

  // Application state.
  bool app_active_ = false;
  bool app_slice_running_ = false;
  SimTime app_remaining_ = 0;
  SimTime app_slice_started_ = 0;
  BusyCat app_cat_ = BusyCat::kCompute;
  Engine::EventId app_event_ = Engine::kInvalidEvent;
  std::coroutine_handle<> app_waiter_ = nullptr;

  // Service state.
  struct Service {
    SimTime duration;
    BusyCat cat;
    std::function<void()> done;
  };
  std::deque<Service> service_queue_;
  bool service_active_ = false;

  // Accounting.
  BusyBreakdown busy_;
};

}  // namespace hlrc

#endif  // SRC_SIM_PROCESSOR_H_

#include "src/sim/processor.h"

#include <utility>

namespace hlrc {

Processor::Processor(Engine* engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

void Processor::StartApp(SimTime duration, BusyCat cat, std::coroutine_handle<> waiter) {
  HLRC_CHECK_MSG(!app_active_, "processor %s: overlapping application executions",
                 name_.c_str());
  app_active_ = true;
  app_remaining_ = duration;
  app_cat_ = cat;
  app_waiter_ = waiter;
  if (!service_active_) {
    StartAppSlice();
  }
}

void Processor::StartAppSlice() {
  HLRC_CHECK(app_active_ && !app_slice_running_ && !service_active_);
  app_slice_running_ = true;
  app_slice_started_ = engine_->Now();
  app_event_ = engine_->Schedule(app_remaining_, [this] { FinishApp(); });
}

void Processor::FinishApp() {
  HLRC_CHECK(app_active_ && app_slice_running_);
  busy_.Add(app_cat_, app_remaining_);
  app_slice_running_ = false;
  app_active_ = false;
  app_remaining_ = 0;
  app_event_ = Engine::kInvalidEvent;
  std::coroutine_handle<> waiter = app_waiter_;
  app_waiter_ = nullptr;
  // Resume the application coroutine directly: we are inside an engine event.
  waiter.resume();
}

void Processor::PreemptApp() {
  HLRC_CHECK(app_slice_running_);
  const SimTime ran = engine_->Now() - app_slice_started_;
  HLRC_CHECK(ran >= 0 && ran <= app_remaining_);
  busy_.Add(app_cat_, ran);
  app_remaining_ -= ran;
  engine_->Cancel(app_event_);
  app_event_ = Engine::kInvalidEvent;
  app_slice_running_ = false;
}

void Processor::RunService(SimTime duration, BusyCat cat, std::function<void()> done) {
  HLRC_CHECK(duration >= 0);
  service_queue_.push_back(Service{duration, cat, std::move(done)});
  if (!service_active_) {
    if (app_slice_running_) {
      PreemptApp();
    }
    service_active_ = true;
    StartNextService();
  }
}

void Processor::StartNextService() {
  HLRC_CHECK(service_active_ && !service_queue_.empty());
  Service svc = std::move(service_queue_.front());
  service_queue_.pop_front();
  engine_->Schedule(svc.duration, [this, svc = std::move(svc)]() mutable {
    busy_.Add(svc.cat, svc.duration);
    // Run the handler's effects at the end of the service period. The handler
    // may enqueue further services on this processor.
    if (svc.done) {
      svc.done();
    }
    if (!service_queue_.empty()) {
      StartNextService();
      return;
    }
    service_active_ = false;
    if (app_active_) {
      // Resume the preempted (or newly requested) application work.
      StartAppSlice();
    }
  });
}

const char* BusyCatName(BusyCat c) {
  switch (c) {
    case BusyCat::kCompute:
      return "compute";
    case BusyCat::kTwin:
      return "twin";
    case BusyCat::kDiffCreate:
      return "diff-create";
    case BusyCat::kDiffApply:
      return "diff-apply";
    case BusyCat::kWriteNotice:
      return "write-notice";
    case BusyCat::kInterrupt:
      return "interrupt";
    case BusyCat::kService:
      return "service";
    case BusyCat::kPageTransfer:
      return "page-transfer";
    case BusyCat::kGc:
      return "gc";
    case BusyCat::kFault:
      return "fault";
    case BusyCat::kCount:
      break;
  }
  return "?";
}

const char* WaitCatName(WaitCat c) {
  switch (c) {
    case WaitCat::kNone:
      return "none";
    case WaitCat::kData:
      return "data";
    case WaitCat::kLock:
      return "lock";
    case WaitCat::kBarrier:
      return "barrier";
    case WaitCat::kGc:
      return "gc";
    case WaitCat::kCount:
      break;
  }
  return "?";
}

}  // namespace hlrc

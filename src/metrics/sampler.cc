#include "src/metrics/sampler.h"

#include "src/common/check.h"

namespace hlrc {

Sampler::Sampler(Engine* engine, SimTime interval, size_t max_samples)
    : engine_(engine), interval_(interval), max_samples_(max_samples) {
  HLRC_CHECK(engine_ != nullptr);
  HLRC_CHECK(interval_ > 0);
  HLRC_CHECK(max_samples_ > 0);
}

void Sampler::AddSeries(std::string name, NodeId node, std::function<double()> probe) {
  HLRC_CHECK(!started_);
  series_.push_back(SeriesInfo{std::move(name), node});
  probes_.push_back(std::move(probe));
}

void Sampler::Start() {
  HLRC_CHECK(!started_);
  started_ = true;
  if (series_.empty()) {
    return;
  }
  TakeSample();
  engine_->Schedule(interval_, [this] { Tick(); });
}

void Sampler::TakeSample() {
  Sample s;
  s.time = engine_->Now();
  s.values.reserve(probes_.size());
  for (auto& probe : probes_) {
    s.values.push_back(probe());
  }
  samples_.push_back(std::move(s));
}

void Sampler::Tick() {
  TakeSample();
  if (samples_.size() >= max_samples_) {
    truncated_ = true;
    return;
  }
  // Reschedule only while other work remains: the tick itself was already
  // popped, so an empty queue here means the simulation has quiesced and
  // another tick would only stall Engine::Run.
  if (!engine_->Idle()) {
    engine_->Schedule(interval_, [this] { Tick(); });
  }
}

}  // namespace hlrc

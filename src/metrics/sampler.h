// Simulated-time metric sampler.
//
// Snapshots a set of probes every `interval` of *virtual* time into a
// time-series, so burst structure (traffic spikes at barriers, retransmit
// backlogs during partitions) is visible instead of averaged away. The
// sampler is an ordinary engine event: it reads state and schedules its own
// next tick, so it cannot perturb simulated time — existing events keep
// their relative order, and the tick stops rescheduling the moment the event
// queue is otherwise empty (a tick that kept rescheduling unconditionally
// would prevent Engine::Run from ever draining).
#ifndef SRC_METRICS_SAMPLER_H_
#define SRC_METRICS_SAMPLER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/sim/engine.h"

namespace hlrc {

class Sampler {
 public:
  // `max_samples` bounds memory for arbitrarily long runs; once reached the
  // sampler stops ticking and the export marks the series truncated.
  Sampler(Engine* engine, SimTime interval, size_t max_samples = 16384);

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Registers a probe before Start(). `node` is -1 for machine-wide series.
  void AddSeries(std::string name, NodeId node, std::function<double()> probe);

  // Takes the t=0 sample and schedules the first tick. Call once, before the
  // engine runs.
  void Start();

  struct SeriesInfo {
    std::string name;
    NodeId node;
  };
  struct Sample {
    SimTime time;
    std::vector<double> values;  // one per registered series
  };

  SimTime interval() const { return interval_; }
  const std::vector<SeriesInfo>& series() const { return series_; }
  const std::vector<Sample>& samples() const { return samples_; }
  bool truncated() const { return truncated_; }

 private:
  void TakeSample();
  void Tick();

  Engine* engine_;
  SimTime interval_;
  size_t max_samples_;
  bool started_ = false;
  bool truncated_ = false;
  std::vector<SeriesInfo> series_;
  std::vector<std::function<double()>> probes_;
  std::vector<Sample> samples_;
};

}  // namespace hlrc

#endif  // SRC_METRICS_SAMPLER_H_

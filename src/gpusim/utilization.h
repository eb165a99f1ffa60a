// GPU utilization tracking.
//
// The device model reports piecewise-constant utilization between simulator
// events: compute throughput utilization, memory bandwidth utilization, and
// fraction of busy SMs (the three metrics defined in §2 of the paper).
// Runs report them as one time-weighted average over a measurement window
// (Table 1, Figures 8 and 9), so the tracker integrates instead of logging:
// it holds the open sample (adjacent identical intervals merge into it) and
// running sums over the window [window_start, ...). A closed sample is
// clipped at the window start and added to the sums, so memory stays
// constant however long the run. The window start is set before the window
// begins (RunExperiment's warm-up end, the profiler's first measured
// request) and defaults to 0. Only a timeline (Figure 1) needs every
// sample; KeepSamples() turns the log on for it.
#ifndef SRC_GPUSIM_UTILIZATION_H_
#define SRC_GPUSIM_UTILIZATION_H_

#include <vector>

#include "src/common/time_types.h"

namespace orion {
namespace gpusim {

struct UtilizationSample {
  TimeUs start = 0.0;
  TimeUs end = 0.0;
  double compute = 0.0;   // fraction of peak compute throughput in use
  double membw = 0.0;     // fraction of peak memory bandwidth in use
  double sm_busy = 0.0;   // fraction of SMs executing at least one warp
};

class UtilizationTracker {
 public:
  void Record(TimeUs start, TimeUs end, double compute, double membw, double sm_busy);

  // Starts the averaging window at `from` and clears its sums. Every sample
  // closed so far must end by `from` (set it before the window begins).
  void set_window_start(TimeUs from);

  // Time-weighted averages over [window start, to). Every closed sample
  // must end by `to`; the open one is clipped there.
  UtilizationSample Average(TimeUs to) const;

  // Keeps every sample from here on for samples() and Timeline(); call it
  // before the first Record.
  void KeepSamples();
  const std::vector<UtilizationSample>& samples() const { return samples_; }

  // Downsamples the kept samples into `buckets` equal-width windows over
  // [from, to); each bucket holds the time-weighted mean of its window.
  std::vector<UtilizationSample> Timeline(TimeUs from, TimeUs to, int buckets) const;

 private:
  // Width-weighted sums of the samples clipped to one window.
  struct Sums {
    double total = 0.0;
    double compute = 0.0;
    double membw = 0.0;
    double sm_busy = 0.0;

    // Adds the part of `sample` inside [from, to).
    void Add(const UtilizationSample& sample, TimeUs from, TimeUs to);
    UtilizationSample Mean(TimeUs from, TimeUs to) const;
  };

  UtilizationSample open_;
  bool has_open_ = false;
  TimeUs closed_end_ = 0.0;  // end of the last closed sample
  TimeUs window_start_ = 0.0;
  Sums window_;              // closed samples inside the window
  bool keep_samples_ = false;
  std::vector<UtilizationSample> samples_;  // every sample, when kept
};

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_UTILIZATION_H_

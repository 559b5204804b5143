#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace gcopss::metrics {

// End-to-end update-latency collector. One sample per (publication,
// subscriber) delivery, plus a per-publication min/avg/max series indexed by
// publication sequence — the x-axis of the paper's Fig. 5 plots. Cache-line
// aligned: parallel runs keep one recorder per shard side by side.
class alignas(64) LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t expectedPublications = 0) {
    if (expectedPublications > 0) perPub_.reserve(expectedPublications);
  }

  // `pubIndex` is the publication's 0-based index in the trace.
  void record(std::size_t pubIndex, SimTime published, SimTime delivered);

  const SampleSet& samples() const { return samples_; }
  double meanMs() const { return samples_.mean(); }

  struct PubPoint {
    std::size_t count = 0;
    double minMs = 0.0;
    double maxMs = 0.0;
    double sumMs = 0.0;
    double avgMs() const { return count ? sumMs / static_cast<double>(count) : 0.0; }
  };
  // Per-publication latency spread; index = publication index.
  const std::vector<PubPoint>& perPublication() const { return perPub_; }

  // Down-sampled series for printing a figure: every `stride`-th publication
  // as (index, min, avg, max) in ms.
  struct SeriesPoint {
    std::size_t index;
    double minMs;
    double avgMs;
    double maxMs;
  };
  std::vector<SeriesPoint> series(std::size_t points = 40) const;

  std::uint64_t deliveries() const { return samples_.count(); }

  // Fold another recorder's deliveries into this one. Every aggregate here
  // (SampleSet percentiles sort on demand; PubPoint keeps count/min/max/sum)
  // is insensitive to sample order, so merging per-shard recorders from a
  // parallel run reproduces the single-recorder serial result exactly.
  void mergeFrom(const LatencyRecorder& other);

 private:
  SampleSet samples_;  // all delivery latencies, in ms
  std::vector<PubPoint> perPub_;
};

// Convergence-time collector for the player-movement experiment (Table III):
// one sample per completed move, bucketed by movement type.
class ConvergenceRecorder {
 public:
  explicit ConvergenceRecorder(std::size_t numTypes) : byType_(numTypes) {}

  void record(std::size_t type, SimTime moveAt, SimTime convergedAt);

  const RunningStats& typeStats(std::size_t type) const { return byType_.at(type); }
  const RunningStats& total() const { return total_; }

 private:
  std::vector<RunningStats> byType_;  // ms
  RunningStats total_;
};

}  // namespace gcopss::metrics

#pragma once

// In-memory span log of one pass, written as JSON lines when the pass ends.
// Host spans time phases and the benchmark's calls into a layer (steady
// clock, ns since the pass started); sim spans are the hops of one traced
// publication (simulated ns), sharing its seq as their trace id.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  enum class Clock : std::uint8_t { Host, Sim };
  struct Span {
    std::string name;
    Clock clock;
    std::uint64_t traceId;  // publication seq for sim spans, 0 for host spans
    std::int64_t parent;    // index into the log, -1 for none
    std::int64_t start;
    std::int64_t end;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::int64_t hostNow() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::int64_t add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  // Host span starting now; returns its index for close() and as a parent.
  std::int64_t open(const std::string& name, std::int64_t parent = -1) {
    return add(Span{name, Clock::Host, 0, parent, hostNow(), hostNow()});
  }
  void close(std::int64_t index) { spans_.at(static_cast<std::size_t>(index)).end = hostNow(); }
  double seconds(std::int64_t index) const {
    const Span& s = spans_.at(static_cast<std::size_t>(index));
    return static_cast<double>(s.end - s.start) * 1e-9;
  }

  // One JSON object per line; returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

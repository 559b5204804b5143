#include "common/stats.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace gcopss {
namespace {

// Radix sort of doubles on their IEEE-754 bit patterns: for values that are
// >= +0.0 and not NaN, unsigned bit-pattern order is value order and equal
// values have equal bits, so the result is byte-identical to std::sort's.
// In place (American flag sort: MSD, 8-bit digits, cycle-leader
// permutation), so a large sample set needs no second buffer; the first
// digit starts at the highest bit on which the samples differ, and buckets
// below kInsertionMax finish by insertion sort.
constexpr std::size_t kInsertionMax = 32;

inline std::uint64_t keyOf(double x) { return std::bit_cast<std::uint64_t>(x); }

void insertionSortByKey(double* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const double x = a[i];
    const std::uint64_t k = keyOf(x);
    std::size_t j = i;
    for (; j > 0 && keyOf(a[j - 1]) > k; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

// Sorts a[0, n) whose keys agree on every bit above shift + 8.
void flagSort(double* a, std::size_t n, int shift) {
  if (n <= kInsertionMax) {
    insertionSortByKey(a, n);
    return;
  }
  auto digit = [shift](double x) { return static_cast<std::size_t>((keyOf(x) >> shift) & 0xFF); };
  std::array<std::size_t, 256> count{};
  for (std::size_t i = 0; i < n; ++i) ++count[digit(a[i])];
  std::array<std::size_t, 256> next{};
  std::array<std::size_t, 256> end{};
  std::size_t sum = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    next[d] = sum;
    sum += count[d];
    end[d] = sum;
  }
  for (std::size_t d = 0; d < 256; ++d) {
    while (next[d] < end[d]) {
      double x = a[next[d]];
      for (std::size_t xd = digit(x); xd != d; xd = digit(x)) std::swap(x, a[next[xd]++]);
      a[next[d]++] = x;
    }
  }
  if (shift == 0) return;
  const int lower = std::max(0, shift - 8);
  std::size_t start = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    if (count[d] > 1) flagSort(a + start, count[d], lower);
    start += count[d];
  }
}

// Returns false, leaving `v` untouched, if any sample is negative, -0.0 or
// NaN.
bool radixSortNonNegative(std::vector<double>& v) {
  std::uint64_t differ = 0;
  for (double x : v) {
    if (std::signbit(x) || std::isnan(x)) return false;
    differ |= keyOf(x) ^ keyOf(v.front());
  }
  if (differ == 0) return true;  // one key: already sorted
  const int top = 63 - std::countl_zero(differ);
  flagSort(v.data(), v.size(), std::max(0, top - 7));
  return true;
}

// Below this size std::sort is as fast and needs no scratch buffer.
constexpr std::size_t kRadixMinSamples = 256;

}  // namespace

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95HalfWidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void SampleSet::ensureSorted() const {
  if (!sorted_) {
    auto& s = const_cast<std::vector<double>&>(samples_);
    if (s.size() < kRadixMinSamples || !radixSortNonNegative(s)) std::sort(s.begin(), s.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  ensureSorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double SampleSet::cdfAt(double x) const {
  if (samples_.empty()) return 0.0;
  ensureSorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::cdfPoints(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  ensureSorted();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i + 1) / static_cast<double>(points);
    out.emplace_back(percentile(q), q);
  }
  return out;
}

std::string formatRow(const std::vector<std::string>& cells,
                      const std::vector<int>& widths) {
  std::string row;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    std::string cell = cells[i];
    if (static_cast<int>(cell.size()) < w) {
      cell.insert(0, static_cast<std::size_t>(w) - cell.size(), ' ');
    }
    row += cell;
    row += "  ";
  }
  return row;
}

}  // namespace gcopss

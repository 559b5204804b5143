#include "common/bloom.hpp"

#include <cmath>
#include <stdexcept>

namespace gcopss {

CountingBloomFilter::CountingBloomFilter(std::size_t bits, unsigned k)
    : counters_(bits, 0), k_(k), schedule_(bits, k) {
  if (bits == 0 || k == 0) {
    throw std::invalid_argument("CountingBloomFilter: bits and k must be > 0");
  }
}

void CountingBloomFilter::clear() {
  counters_.assign(counters_.size(), 0);
  entries_ = 0;
}

double CountingBloomFilter::predictedFalsePositiveRate() const {
  const double m = static_cast<double>(counters_.size());
  const double n = static_cast<double>(entries_);
  const double k = static_cast<double>(k_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace gcopss

#include "spans.hpp"

#include <cstdio>

namespace perfbench {

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"clock\":\"%s\",\"trace\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name.c_str(), s.clock == Clock::Host ? "host" : "sim",
                 static_cast<unsigned long long>(s.traceId), static_cast<long long>(s.parent),
                 static_cast<long long>(s.start), static_cast<long long>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

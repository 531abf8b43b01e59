#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

std::string Report::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    // JSON has no NaN or Inf: such a value is a benchmark bug, and the run
    // fails without a result rather than print a made-up number.
    if (!std::isfinite(e.value)) throw std::runtime_error("non-finite metric " + e.name);
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit +
           "\"}";
  }
  return out + "}";
}

void log(const char* fmt, ...) {
  std::fprintf(stderr, "[perfbench] ");
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fprintf(stderr, "\n");
}

}  // namespace perfbench

// Shared plumbing of the repository benchmark: timing, percentiles, the
// metric report and the correctness ledger every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// `stat` of each consecutive window of `window` samples of `v` (in
/// arrival order); a trailing partial window is dropped, and fewer samples
/// than one window make a single window of all of them.
template <typename Stat>
std::vector<double> per_window(const std::vector<double>& v, std::size_t window, Stat stat) {
  if (v.size() < window) return {stat(v)};
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= v.size(); i += window) {
    out.push_back(stat(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(i),
                                           v.begin() + static_cast<std::ptrdiff_t>(i + window))));
  }
  return out;
}
inline std::vector<double> window_percentiles(const std::vector<double>& v, std::size_t window,
                                              double q) {
  return per_window(v, window, [q](std::vector<double> w) { return percentile(std::move(w), q); });
}
/// Share of each window's samples in [0, limit] (negative = failed).
inline std::vector<double> window_shares_within(const std::vector<double>& v,
                                                std::size_t window, double limit) {
  return per_window(v, window, [limit](const std::vector<double>& w) {
    double n = 0;
    for (double x : w) n += (x >= 0 && x <= limit) ? 1 : 0;
    return w.empty() ? 0.0 : n / static_cast<double>(w.size());
  });
}

/// Heap allocations made by this process so far (every operator new).
std::uint64_t heap_allocs();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch files (saved containers) go here
};

/// Named metrics in insertion order. Setting a name twice overwrites it.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// What every run reports besides its metrics: how many operations it tried,
/// how many failed, and every way an output disagreed with its reference.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;  // outputs not equal to the reference
  std::vector<std::string> errors;  // failed invariants, one line each
  /// Exact counts that must repeat between runs of the same code (checked
  /// across runs by run.py).
  std::vector<std::pair<std::string, double>> exact;

  void fail_check(const std::string& what) { errors.push_back(what); }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail_check(what);
  }
  bool correct() const { return mismatches == 0 && errors.empty(); }
};

/// One `[perfbench]` progress line on stderr (stdout carries the result).
void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

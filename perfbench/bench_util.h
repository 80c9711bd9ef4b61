// Small helpers shared by the benchmark driver: clocks, order
// statistics, the result line and a scratch directory that removes
// itself.

#ifndef MVOPT_PERFBENCH_BENCH_UTIL_H_
#define MVOPT_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t index = static_cast<size_t>(std::lround(rank));
  return values[std::min(index, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// a / b, or 0 when there is nothing to divide by.
inline double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the result line, one JSON object, as the last line of stdout.
inline void PrintResult(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// A fresh directory under `parent`, removed with everything in it when
/// the object goes out of scope (normal exit and exceptions alike).
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& prefix) {
    std::filesystem::create_directories(parent);
    for (int attempt = 0;; ++attempt) {
      const auto stamp = Clock::now().time_since_epoch().count();
      std::filesystem::path p = std::filesystem::path(parent) /
                                (prefix + std::to_string(stamp) + "-" +
                                 std::to_string(attempt));
      if (std::filesystem::create_directory(p)) {
        path_ = p.string();
        break;
      }
    }
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench

#endif  // MVOPT_PERFBENCH_BENCH_UTIL_H_

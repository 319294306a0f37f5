// Flat (name, value) metric sink shared by the gated benches (--json PATH):
// one JSON object per run, tagged with the bench name, whose keys carry unit
// suffixes so the artifact is self-describing. The CI gate steps read these
// keys.
#ifndef ZOOMER_BENCH_METRIC_SINK_H_
#define ZOOMER_BENCH_METRIC_SINK_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace zoomer {
namespace bench {

class MetricSink {
 public:
  explicit MetricSink(std::string bench) : bench_(std::move(bench)) {}

  void Record(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  bool WriteJson(const std::string& path, bool smoke) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    std::fprintf(f, "  \"smoke\": %s", smoke ? "true" : "false");
    for (const auto& [name, value] : metrics_) {
      std::fprintf(f, ",\n  \"%s\": %.6g", name.c_str(), value);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace bench
}  // namespace zoomer

#endif  // ZOOMER_BENCH_METRIC_SINK_H_

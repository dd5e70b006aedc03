#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Result collection and printing for the repo benchmark: the gated
// end-to-end metrics, the paper-named headline metrics, timing diagnostics,
// per-layer metrics, output checks and failure accounting of one run.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench.h"

namespace perfbench {

/// Command-line settings of one run. `scale` shrinks every workload size
/// (the negative tests use it to run in seconds); `corrupt` names one
/// output check to sabotage, so a test can show that the check fires.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
  double scale = 1.0;
  std::string corrupt;
};

/// Latency recorded for a failed, rejected or refused operation: it counts
/// as missing every latency limit.
inline constexpr double kFailedMs = 1e6;

inline std::size_t Scaled(const Args& a, std::size_t n, std::size_t floor) {
  return std::max(floor,
                  static_cast<std::size_t>(static_cast<double>(n) * a.scale));
}

/// A latency sample in milliseconds.
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t size() const { return v_.size(); }
  double P(double p) const { return quasii::bench::Percentile(v_, p); }
  double Median() const { return P(0.5); }
  double Max() const {
    return v_.empty() ? 0 : *std::max_element(v_.begin(), v_.end());
  }

 private:
  std::vector<double> v_;
};

/// The median and a tail percentile of every episode's latency sample. A
/// run reports the median of each over its episodes, so one disturbed
/// episode moves one value instead of the pooled distribution.
struct EpisodeQuantiles {
  std::vector<double> p50, tail;
  void Add(const Samples& episode, double tail_p) {
    p50.push_back(episode.Median());
    tail.push_back(episode.P(tail_p));
  }
};

/// Episodes every run makes at least. `peak_rss_mb` is read when they are
/// done: later episodes of a longer run only add allocator fragmentation
/// from rebuilding indexes, which would tie the figure to how many
/// episodes the host's speed allowed.
inline constexpr int kRssEpisodes = 3;

/// Peak resident memory of the process so far.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// A traced phase: its wall time next to the summed duration of its
/// top-level spans (the spans whose parent is the phase span).
struct PhaseLine {
  std::string name;
  double wall_ms = 0;
  double top_spans_ms = 0;
  std::size_t top_spans = 0;
};

class Report {
 public:
  /// One of the benchmark's gated end-to-end metrics (`BENCHMARK.json`).
  void Gated(const std::string& name, double value, const std::string& unit) {
    gated_.push_back({name, value, unit});
  }
  /// An end-to-end metric under its workload-specific name.
  void Headline(const std::string& name, double value,
                const std::string& unit) {
    headline_.push_back({name, value, unit});
  }
  /// A timing diagnostic: median, p99, the highest percentile with at least
  /// ten samples beyond it, max, and the sample count.
  void Timing(const std::string& name, const Samples& s,
              double unit_per_ms = 1.0, const std::string& unit = "ms") {
    char line[320];
    const double n = static_cast<double>(s.size());
    double top = 0.5;
    for (double p : {0.9, 0.99, 0.999}) {
      if ((1.0 - p) * n >= 10) top = p;
    }
    std::snprintf(line, sizeof(line),
                  "  %-34s p50=%.4g p99=%.4g p%g=%.4g max=%.4g %s  n=%zu",
                  name.c_str(), s.P(0.5) * unit_per_ms,
                  s.P(0.99) * unit_per_ms, top * 100, s.P(top) * unit_per_ms,
                  s.Max() * unit_per_ms, unit.c_str(), s.size());
    timings_.push_back(line);
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers_.push_back({name, value, unit});
  }
  /// A per-layer metric this workload does not load.
  void LayerNotLoaded(const std::string& name, const std::string& why) {
    not_loaded_.push_back(name + " (" + why + ")");
  }
  void AddCheck(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
  }
  void AddPhase(const PhaseLine& p) { phases_.push_back(p); }
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Failure accounting: every operation or request the run attempted, and
  /// the failed, rejected or refused ones among them.
  void CountOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_share() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  bool correct() const {
    if (checks_.empty()) return false;
    for (const Check& c : checks_) {
      if (!c.ok) return false;
    }
    return true;
  }
  const std::vector<Metric>& gated() const { return gated_; }
  const std::vector<Metric>& layers() const { return layers_; }

  const Metric* FindLayer(const std::string& name) const {
    for (const Metric& m : layers_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void Print(std::FILE* out, bool traced) const {
    std::fprintf(out, "end-to-end metrics (%s):\n",
                 traced ? "traced run - compare with an untraced run"
                        : "untraced run");
    for (const Metric& m : headline_) {
      std::fprintf(out, "  %-34s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::fprintf(out, "  %-34s %.6g fraction (%llu of %llu ops)\n",
                 "failed_share", failed_share(),
                 static_cast<unsigned long long>(failed_),
                 static_cast<unsigned long long>(attempted_));
    std::fprintf(out, "gated metrics (BENCHMARK.json end_to_end):\n");
    for (const Metric& m : gated_) {
      std::fprintf(out, "  %-34s %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
    std::fprintf(out, "timing diagnostics:\n");
    for (const std::string& t : timings_) std::fprintf(out, "%s\n", t.c_str());
    if (traced) {
      std::fprintf(out, "per-layer metrics:\n");
      for (const Metric& m : layers_) {
        std::fprintf(out, "  %-34s %.6g %s\n", m.name.c_str(), m.value,
                     m.unit.c_str());
      }
      for (const std::string& s : not_loaded_) {
        std::fprintf(out, "  %-34s n/a\n", s.c_str());
      }
      std::fprintf(out, "phases (wall time vs summed top-level spans):\n");
      for (const PhaseLine& p : phases_) {
        std::fprintf(out, "  %-34s wall=%.3f ms  top-level spans=%.3f ms (%zu)\n",
                     p.name.c_str(), p.wall_ms, p.top_spans_ms, p.top_spans);
      }
    }
    for (const std::string& n : notes_) std::fprintf(out, "%s\n", n.c_str());
    std::fprintf(out, "output checks:\n");
    for (const Check& c : checks_) {
      std::fprintf(out, "  [%s] %s: %s\n", c.ok ? "ok" : "FAILED",
                   c.name.c_str(), c.detail.c_str());
    }
  }

 private:
  std::vector<Metric> gated_;
  std::vector<Metric> headline_;
  std::vector<std::string> timings_;
  std::vector<Metric> layers_;
  std::vector<std::string> not_loaded_;
  std::vector<Check> checks_;
  std::vector<PhaseLine> phases_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

inline double MedianOf(std::vector<double> v) {
  return quasii::bench::Percentile(std::move(v), 0.5);
}

/// Order-independent digest of one query's result set, so two executions
/// that return the same ids in a different order agree.
inline std::uint64_t ResultDigest(const std::vector<quasii::ObjectId>& ids) {
  std::uint64_t sum = 0;
  for (const quasii::ObjectId id : ids) {
    sum += quasii::Rng::SplitMix64(static_cast<std::uint64_t>(id) + 1);
  }
  return quasii::FnvMix(quasii::FnvMix(quasii::kFnvBasis, ids.size()), sum);
}

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

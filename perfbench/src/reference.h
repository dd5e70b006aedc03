#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// The reference kernel: fixed benchmark-side work that calls nothing in the
// engine, timed in the same process as the workload, between its episodes.
//
// The shared virtual machines this benchmark runs on change speed by tens
// of percent over minutes (other tenants' memory traffic and their load on
// the same physical cores), far more than one run can average away. Every
// gated time and rate is therefore reported twice: as measured (under its
// workload-specific name) and, under its gated name, scaled by the
// `nominal / measured` cost of the reference kernel. Host drift slows the
// workload and the kernel together and cancels as far as the kernel feels
// it; a change in the engine's own cost moves only the workload and passes
// through unchanged. Values keep the metric's unit, read at the kernel's
// nominal speed (README.md).
//
// The kernel is a read-only pass over the workload's own dataset that
// tests every box against a query box, as a Scan index would. It reads
// from the level of the memory hierarchy the workload's data lives in
// (DRAM for 2^22 boxes, L3 for 2^20) and allocates nothing, so it adds
// nothing to the peak resident memory.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/timer.h"
#include "report.h"

namespace perfbench {

/// Nominal cost of the reference kernel, ns per box, measured on the
/// tuning box; the gated values read as if every run had its speed.
inline constexpr double kNominalRefNs = 7.0;

/// Boxes of `data` that intersect `q`.
inline std::uint64_t ReferenceScan(const quasii::Dataset3& data,
                                   const quasii::Box3& q) {
  std::uint64_t hits = 0;
  for (const quasii::Box3& b : data) {
    bool hit = true;
    for (int d = 0; d < 3; ++d) {
      hit &= (b.lo[d] <= q.hi[d]) & (q.lo[d] <= b.hi[d]);
    }
    hits += hit;
  }
  return hits;
}

/// The machine's CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests while this one wanted to
/// run (steal). Zero when the file cannot be read.
struct CpuTicks {
  double total = 0, steal = 0;

  static CpuTicks Now() {
    CpuTicks t;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    double v[8] = {};
    if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1],
                    &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const double x : v) t.total += x;
      t.steal = v[7];
    }
    std::fclose(f);
    return t;
  }
};

/// Times the reference kernel between episodes and keeps every sample.
class HostGauge {
 public:
  explicit HostGauge(const quasii::Dataset3* data)
      : data_(data), start_(CpuTicks::Now()) {}

  /// Times the kernel `kPasses` times, each against a different box of the
  /// dataset. Call it between episodes, never inside a timed region.
  void Sample() {
    constexpr int kPasses = 3;
    const std::size_t n = data_->size();
    if (n == 0) return;
    for (int p = 0; p < kPasses; ++p) {
      const quasii::Box3& q = (*data_)[(samples_.size() * 7919) % n];
      quasii::Timer t;
      hits_ += ReferenceScan(*data_, q);
      samples_.push_back(t.Seconds() * 1e9 / static_cast<double>(n));
    }
  }

  /// Median measured cost, ns per box.
  double MeasuredNs() const { return MedianOf(samples_); }
  /// The factor that brings a time measured in this run to nominal speed.
  double Scale() const {
    const double m = MeasuredNs();
    return m > 0 ? kNominalRefNs / m : 1.0;
  }
  std::size_t samples() const { return samples_.size(); }
  /// Share of the machine's CPU time stolen by the hypervisor since the
  /// gauge was made: a diagnostic of how disturbed the run was.
  double StealShare() const {
    const CpuTicks now = CpuTicks::Now();
    const double total = now.total - start_.total;
    return total > 0 ? (now.steal - start_.steal) / total : 0;
  }
  /// The kernel ran and gave usable times (its hit count is kept so no
  /// pass can be optimised away).
  bool ok() const {
    if (samples_.empty() || hits_ == 0) return false;
    for (const double v : samples_) {
      if (!(v > 0)) return false;
    }
    return true;
  }

 private:
  const quasii::Dataset3* data_;
  CpuTicks start_;
  std::vector<double> samples_;
  std::uint64_t hits_ = 0;
};

/// Adds gated metric `name`: `raw`, measured in this run, brought to the
/// nominal speed. A time is multiplied by the scale; a rate (`rate` true)
/// is divided by it.
inline void GateScaled(Report* r, const HostGauge& g, const std::string& name,
                       double raw, const std::string& unit, bool rate = false) {
  const double s = g.Scale();
  r->Gated(name, rate ? raw / s : raw * s, unit);
}

/// Reports the kernel's measured cost and scale, and checks it ran
/// (`corrupt` sabotages the check, for the negative tests).
inline void AddGaugeReport(const HostGauge& g, bool corrupt, Report* r) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "host gauge: reference scan %.4g ns/box (nominal %.4g), "
                "scale %.4f, %zu samples; CPU steal %.1f%% of machine time",
                g.MeasuredNs(), kNominalRefNs, g.Scale(), g.samples(),
                g.StealShare() * 100);
  r->Note(line);
  r->AddCheck("host_gauge", g.ok() && !corrupt,
              "the reference kernel ran and gave positive times");
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

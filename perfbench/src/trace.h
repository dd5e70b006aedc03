#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded only around the benchmark's own calls into the engine's public
// functions; nothing inside the engine is instrumented. Each span carries
// its name, start, end, parent span and the id of the request it belongs
// to, plus the work counters read at the same boundaries. Spans stay in
// memory and are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/query_stats.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  /// Work counters read at the span's boundaries (`thread_stats()` delta).
  quasii::QueryStats stats;
  /// Results the call returned (queries) or 1/0 accepted (mutations).
  std::uint64_t results = 0;
  /// Free-form small tag: the query type for `quasii.execute` spans.
  std::int32_t tag = -1;
  /// `ConvergedFor()` verdict read before a query executed.
  bool converged = false;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// Opens a span and returns its id (-1 when tracing is off). The parent
  /// defaults to the innermost span opened through `Push`.
  std::int32_t Open(const char* name, std::uint64_t request,
                    std::int32_t parent = kCurrent) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent == kCurrent ? Current() : parent;
    s.start_ns = NowNs();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void Close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  }

  /// Opens a span and makes it the parent of spans opened after it, until
  /// the matching `Pop`.
  std::int32_t Push(const char* name, std::uint64_t request = 0) {
    const std::int32_t id = Open(name, request);
    if (id >= 0) stack_.push_back(id);
    return id;
  }
  void Pop(std::int32_t id) {
    if (id < 0) return;
    Close(id);
    stack_.pop_back();
  }

  Span* Get(std::int32_t id) {
    return id < 0 ? nullptr : &spans_[static_cast<std::size_t>(id)];
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the time its children
  /// cover (children of one span never overlap in the synchronous paths;
  /// overlapping asynchronous children are clipped to the parent).
  std::vector<double> SelfMs() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double v = spans_[i].ms() - child_ms[i];
      self[i] = v > 0 ? v : 0;
    }
    return self;
  }

  /// Writes every span as one tab-separated line:
  /// id, name, start_ns, end_ns, parent, request, cracks, moved, tested,
  /// visited, bytes, results, tag, converged.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "id\tname\tstart_ns\tend_ns\tparent\trequest\tcracks\tmoved"
                 "\ttested\tvisited\tbytes\tresults\ttag\tconverged\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\t%llu\t%llu\t%llu\t%llu"
                      "\t%llu\t%llu\t%d\t%d\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.stats.cracks),
                   static_cast<unsigned long long>(s.stats.objects_moved),
                   static_cast<unsigned long long>(s.stats.objects_tested),
                   static_cast<unsigned long long>(s.stats.partitions_visited),
                   static_cast<unsigned long long>(s.stats.bytes_scanned),
                   static_cast<unsigned long long>(s.results), s.tag,
                   s.converged ? 1 : 0);
    }
    return std::fclose(f) == 0;
  }

  static constexpr std::int32_t kCurrent = -2;

 private:
  using Clock = std::chrono::steady_clock;

  std::int32_t Current() const { return stack_.empty() ? -1 : stack_.back(); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII phase span: `Push` on construction, `Pop` on destruction.
class PhaseSpan {
 public:
  PhaseSpan(Tracer* t, const char* name) : t_(t), id_(t->Push(name)) {}
  ~PhaseSpan() { t_->Pop(id_); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

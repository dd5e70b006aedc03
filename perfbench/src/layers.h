#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Calls into the engine's layers as the benchmark makes them, with the
// spans the traced run records around them, and the reductions of those
// spans into per-layer metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench.h"
#include "common/crack_array.h"
#include "common/rng.h"
#include "quasii/quasii_index.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

using quasii::Box3;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::bench::Op3;
using quasii::Query3;
using Quasii3 = quasii::QuasiiIndex<3>;

inline constexpr const char* kExecSpan = "quasii.execute";

/// Executes one operation through `SpatialIndex::Execute/Insert/Erase`
/// (`bench::ExecTimedOp`, which times the call alone). In a traced run the
/// call is wrapped in a span that records the `ConvergedFor` verdict read
/// before execution and the caller's `thread_stats()` delta; query spans
/// are named `quasii.execute`, mutation spans `object_store.insert/erase`.
inline quasii::bench::TimedExec TracedOp(Quasii3* index, const Op3& op,
                                         quasii::bench::RunSinks* sinks,
                                         Tracer* tr, std::uint64_t request) {
  if (!tr->on()) return quasii::bench::ExecTimedOp(index, op, sinks);
  const bool query = op.kind() == quasii::RequestKind::kQuery;
  const bool converged = query && index->ConvergedFor(op.query());
  const quasii::QueryStats before = index->thread_stats();
  const char* name = query ? kExecSpan
                     : op.kind() == quasii::RequestKind::kInsert
                         ? "object_store.insert"
                         : "object_store.erase";
  const std::int32_t id = tr->Open(name, request);
  const quasii::bench::TimedExec exec =
      quasii::bench::ExecTimedOp(index, op, sinks);
  tr->Close(id);
  Span* s = tr->Get(id);
  s->stats = index->thread_stats() - before;
  s->results = exec.results;
  s->tag = quasii::bench::OpTypeIndexOf(op);
  s->converged = converged;
  return exec;
}

/// Reduces the `quasii.execute` spans of a traced run into the `quasii.*`
/// per-layer metrics. Work totals are per cold pass — one pass of the
/// workload's stream from an unconverged index: a cold episode of
/// `adaptive_uniform`, the set-up pre-convergence of the others — and
/// `passes` is the number of cold passes the spans cover.
inline void AddQuasiiLayers(const Tracer& tr, double passes, Report* r) {
  const std::vector<double> self = tr.SelfMs();
  const std::vector<Span>& spans = tr.spans();
  double cracking_ms = 0;
  std::uint64_t cracking_queries = 0, queries = 0, converged = 0, results = 0;
  quasii::QueryStats total;
  Samples conv;
  Samples by_type[quasii::bench::kNumQueryTypes];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (std::string(s.name) != kExecSpan) continue;
    ++queries;
    converged += s.converged ? 1 : 0;
    total += s.stats;
    results += s.results;
    if (s.stats.cracks > 0) {
      cracking_ms += self[i];
      ++cracking_queries;
    } else {
      conv.Add(self[i]);
    }
    if (s.tag >= 0 && s.tag < quasii::bench::kNumQueryTypes) {
      by_type[s.tag].Add(self[i]);
    }
  }
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  r->Layer("quasii.cracking_ms", cracking_ms / passes, "ms/pass");
  r->Layer("quasii.cracking_queries",
           static_cast<double>(cracking_queries) / passes, "queries/pass");
  r->Layer("quasii.converged_us", conv.Median() * 1e3, "us");
  r->Layer("quasii.cracks", static_cast<double>(total.cracks) / passes,
           "count/pass");
  r->Layer("quasii.objects_moved",
           static_cast<double>(total.objects_moved) / passes, "rows/pass");
  r->Layer("quasii.moved_per_crack",
           total.cracks > 0 ? static_cast<double>(total.objects_moved) /
                                  static_cast<double>(total.cracks)
                            : 0,
           "rows");
  r->Layer("quasii.tested_per_result",
           results > 0 ? static_cast<double>(total.objects_tested) /
                             static_cast<double>(results)
                       : 0,
           "rows");
  r->Layer("quasii.visited_per_query",
           static_cast<double>(total.partitions_visited) / q, "slices");
  r->Layer("quasii.bytes_per_query",
           static_cast<double>(total.bytes_scanned) / q, "B");
  const char* kTypeMetric[] = {"quasii.range_us", "quasii.point_us",
                               "quasii.count_us", "quasii.knn_us"};
  for (int t = 0; t < 4; ++t) {
    r->Layer(kTypeMetric[t], by_type[t].Median() * 1e3, "us");
  }
  r->Layer("quasii.converged_share", static_cast<double>(converged) / q,
           "fraction");
}

/// Self times of the spans called `name`, in milliseconds.
inline Samples SpanSamples(const Tracer& tr, const char* name) {
  const std::vector<double> self = tr.SelfMs();
  Samples out;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    if (std::string(tr.spans()[i].name) == name) out.Add(self[i]);
  }
  return out;
}

/// One line per phase (root span name): wall time next to the summed
/// duration of its top-level spans.
inline void AddPhaseLines(const Tracer& tr, Report* r) {
  const std::vector<Span>& spans = tr.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  std::vector<std::size_t> child_n(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
    ++child_n[static_cast<std::size_t>(s.parent)];
  }
  std::vector<PhaseLine> lines;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    PhaseLine* line = nullptr;
    for (PhaseLine& l : lines) {
      if (l.name == spans[i].name) line = &l;
    }
    if (line == nullptr) {
      lines.push_back(PhaseLine{spans[i].name, 0, 0, 0});
      line = &lines.back();
    }
    line->wall_ms += spans[i].ms();
    line->top_spans_ms += child_ms[i];
    line->top_spans += child_n[i];
  }
  for (const PhaseLine& l : lines) r->AddPhase(l);
}

/// The `crack_array` probe: times public `CrackArray` calls on a fresh
/// array built from the workload's own dataset, replaying the bounds of the
/// stream's first query — the crack steps (`CrackOnAxis`), the median
/// splits that follow them (`MedianSplit`), a leaf scan over the cracked
/// slab (`StreamScan`) and tombstoning erases (`EraseId`). Medians over
/// `reps` fresh arrays.
inline void RunCrackArrayProbe(const Dataset3& data, const Box3& q,
                               std::uint64_t seed, Tracer* tr, Report* r) {
  constexpr int kReps = 3;
  constexpr int kErases = 4096;
  std::vector<double> crack, split, scan, erase;
  const std::size_t n = data.size();
  PhaseSpan phase(tr, "probe.crack_array");
  for (int rep = 0; rep < kReps; ++rep) {
    quasii::CrackArray<3> arr(data);
    std::int32_t id = tr->Open("crack_array.crack", 0);
    std::int64_t t0 = tr->NowNs();
    const std::size_t p1 = arr.CrackOnAxis(0, n, 0, q.lo[0]);
    const std::size_t p2 = arr.CrackOnAxis(p1, n, 0, q.hi[0]);
    std::int64_t t1 = tr->NowNs();
    tr->Close(id);
    crack.push_back(static_cast<double>(t1 - t0) /
                    static_cast<double>(n + (n - p1)));

    id = tr->Open("crack_array.median_split", 0);
    t0 = tr->NowNs();
    arr.MedianSplit(0, p1, 1);
    arr.MedianSplit(p2, n, 2);
    t1 = tr->NowNs();
    tr->Close(id);
    split.push_back(static_cast<double>(t1 - t0) /
                    static_cast<double>(p1 + (n - p2)));

    std::vector<ObjectId> ids;
    quasii::VectorSink sink(&ids);
    quasii::MatchEmitter emit(/*count_only=*/false, &sink);
    id = tr->Open("crack_array.scan", 0);
    t0 = tr->NowNs();
    arr.StreamScan(p1, p2, q, quasii::RangePredicate::kIntersects, 0, &emit);
    t1 = tr->NowNs();
    tr->Close(id);
    scan.push_back(static_cast<double>(t1 - t0) /
                   static_cast<double>(p2 > p1 ? p2 - p1 : 1));

    quasii::Rng rng(seed + 100 + static_cast<std::uint64_t>(rep));
    std::vector<ObjectId> victims(kErases);
    for (ObjectId& v : victims) {
      v = static_cast<ObjectId>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
    }
    id = tr->Open("crack_array.erase", 0);
    t0 = tr->NowNs();
    for (const ObjectId v : victims) arr.EraseId(v);
    t1 = tr->NowNs();
    tr->Close(id);
    erase.push_back(static_cast<double>(t1 - t0) / kErases);
  }
  r->Layer("crack_array.crack_ns_per_row", MedianOf(crack), "ns");
  r->Layer("crack_array.median_split_ns_per_row", MedianOf(split), "ns");
  r->Layer("crack_array.scan_ns_per_row", MedianOf(scan), "ns");
  r->Layer("crack_array.erase_ns", MedianOf(erase), "ns");
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

#ifndef PERFBENCH_ADAPTIVE_UNIFORM_H_
#define PERFBENCH_ADAPTIVE_UNIFORM_H_

// Workload `adaptive_uniform`: the paper's core scenario (Sections 6.2 and
// 6.6). Repeated cold episodes: each builds a fresh QUASII index over 2^22
// uniform boxes and runs one uniform range-query stream (rotated to a new
// starting query) from the first query, which cracks the raw array, to
// convergence, then re-runs the stream on the converged index. Before each
// episode, cold probes time more first queries, each on a fresh index.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "reference.h"
#include "scan/scan_index.h"

namespace perfbench {

/// Cold first queries timed per episode besides the episode's own: each on
/// a fresh index of its own. A first query's cost depends on where it
/// cracks the raw array (how many rows change sides), so `cold_ms` needs
/// many starting queries behind its median to be a property of the engine
/// rather than of the few queries one run happened to start with.
inline constexpr int kColdProbes = 2;
/// Distinct starting queries the cold first queries cycle through, so
/// every run samples the same starts however many episodes it fits.
inline constexpr std::size_t kRotations = 24;

inline Report RunAdaptiveUniform(const Args& a, Tracer* tr) {
  namespace qb = quasii::bench;
  Report r;
  qb::BenchConfig cfg;
  cfg.dataset = "uniform";
  cfg.workload = "uniform";
  cfg.n = Scaled(a, std::size_t{1} << 22, 4096);
  cfg.queries = static_cast<int>(Scaled(a, 2000, 64));
  cfg.selectivity = 1e-3;
  cfg.seed = a.seed;

  // Set-up: generate the dataset and the query stream (the index itself is
  // built lazily by its first query, which the episodes time). Repeated so
  // `setup_s` is a median.
  Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  std::vector<double> setup_s;
  HostGauge gauge(&data);
  for (int rep = 0; rep < 3; ++rep) {
    data = Dataset3();
    quasii::Timer t;
    qb::MakeBenchInputs(cfg, &data, &universe, &boxes);
    setup_s.push_back(t.Seconds());
    gauge.Sample();
  }
  const std::size_t nq = boxes.size();
  std::vector<Op3> ops;
  ops.reserve(nq);
  for (const Box3& b : boxes) ops.push_back(Op3::MakeQuery(quasii::RangeQuery<3>(b)));

  // Every query of the stream is checked against the Scan oracle on a
  // sample of positions; the sampled results of the first episode are kept.
  const std::size_t sample_every = std::max<std::size_t>(1, nq / 32);
  std::vector<std::vector<ObjectId>> sampled(nq);

  std::vector<double> first_ms, cumulative_ms;
  Samples cold, converged;
  EpisodeQuantiles converged_q;
  std::vector<std::uint64_t> cold_digest(nq), episode_checksums;
  std::vector<std::pair<std::size_t, std::uint64_t>> probe_digests;
  bool converged_results_match = true;
  bool converged_crack_free = true;
  std::uint64_t converged_cracks = 0;
  std::unique_ptr<Quasii3> index;
  qb::RunSinks sinks;
  double rss = 0;
  // Cold sample k starts the stream at query (k mod kRotations) * 97: the
  // same queries with the same answers, cracking the raw array first at
  // another place.
  std::size_t cold_samples = 0;
  auto next_start = [&cold_samples, nq] {
    return (cold_samples++ % kRotations) * 97 % nq;
  };
  Tracer untraced(false);
  quasii::Timer run;
  int episodes = 0;
  for (;;) {
    for (int p = 0; p < kColdProbes; ++p) {
      // Untraced: the per-layer work totals are per cold episode.
      const std::size_t i = next_start();
      Quasii3 probe(data);
      const qb::TimedExec e = TracedOp(&probe, ops[i], &sinks, &untraced, i);
      first_ms.push_back(e.ms);
      probe_digests.emplace_back(i, ResultDigest(sinks.result));
    }
    const std::size_t offset = next_start();
    index = std::make_unique<Quasii3>(data);
    {
      PhaseSpan phase(tr, "adaptive.cold_episode");
      double sum = 0;
      // Order-independent over the rotation: a sum of per-query terms.
      std::uint64_t checksum = 0;
      for (std::size_t j = 0; j < nq; ++j) {
        const std::size_t i = (offset + j) % nq;
        const qb::TimedExec e = TracedOp(index.get(), ops[i], &sinks, tr, i);
        sum += e.ms;
        cold.Add(e.ms);
        if (j == 0) first_ms.push_back(e.ms);
        const std::uint64_t digest = ResultDigest(sinks.result);
        if (episodes == 0) {
          cold_digest[i] = digest;
          if (i == 0 && a.corrupt == "converged_results") cold_digest[i] ^= 1;
        }
        checksum += quasii::FnvMix(quasii::FnvMix(quasii::kFnvBasis, i), digest);
        if (episodes == 0 && i % sample_every == 0) sampled[i] = sinks.result;
      }
      cumulative_ms.push_back(sum);
      episode_checksums.push_back(checksum);
    }
    {
      PhaseSpan phase(tr, "adaptive.converged_pass");
      if (a.corrupt == "converged_crack_free" && episodes == 0) {
        // Negative test: the "converged" pass runs on a fresh index.
        index.reset();
        index = std::make_unique<Quasii3>(data);
      }
      const std::uint64_t cracks_before = index->stats().cracks;
      Samples pass;
      for (std::size_t j = 0; j < nq; ++j) {
        const std::size_t i = (offset + j) % nq;
        const qb::TimedExec e = TracedOp(index.get(), ops[i], &sinks, tr, i);
        pass.Add(e.ms);
        if (ResultDigest(sinks.result) != cold_digest[i]) {
          converged_results_match = false;
        }
      }
      converged.Append(pass);
      converged_q.Add(pass, 0.99);
      const std::uint64_t cracks = index->stats().cracks - cracks_before;
      converged_cracks += cracks;
      if (cracks != 0) converged_crack_free = false;
    }
    ++episodes;
    if (episodes == kRssEpisodes) rss = PeakRssMb();
    if (episodes >= kRssEpisodes &&
        (run.Seconds() >= a.seconds || episodes == 64)) {
      break;
    }
    index.reset();
    gauge.Sample();
  }
  r.CountOps(static_cast<std::uint64_t>(episodes) * 2 * nq, 0);

  // --- Output checks ---
  std::uint64_t expected_checksum = episode_checksums.front();
  if (a.corrupt == "episode_checksum") expected_checksum ^= 1;
  std::size_t same = 0;
  for (const std::uint64_t c : episode_checksums) same += c == expected_checksum;
  r.AddCheck("episode_checksum", same == episode_checksums.size(),
             std::to_string(same) + "/" + std::to_string(episodes) +
                 " cold episodes returned the first episode's result checksum");
  for (const auto& [i, digest] : probe_digests) {
    if (digest != cold_digest[i]) converged_results_match = false;
  }
  r.AddCheck("converged_results", converged_results_match,
             "converged passes and cold probes return the first cold pass's "
             "result sets");
  {
    quasii::ScanIndex<3> oracle(data);
    std::size_t checked = 0, matched = 0;
    std::vector<ObjectId> expect;
    quasii::VectorSink sink(&expect);
    for (std::size_t i = 0; i < nq; i += sample_every) {
      expect.clear();
      oracle.Execute(ops[i].query(), sink);
      if (a.corrupt == "scan_oracle" && checked == 0) expect.push_back(0xFFFFFFF0u);
      ++checked;
      matched += ResultDigest(expect) == ResultDigest(sampled[i]);
    }
    r.AddCheck("scan_oracle", matched == checked,
               std::to_string(matched) + "/" + std::to_string(checked) +
                   " sampled queries match the Scan oracle");
  }
  r.AddCheck("converged_crack_free", converged_crack_free,
             std::to_string(converged_cracks) +
                 " cracks during the converged passes (must be 0)");
  if (a.corrupt == "check_invariants") {
    // Negative test: drop an object from the store behind the index's back.
    index->MutableStoreForRecovery().Erase(0);
  }
  std::string why;
  const bool invariants = index->CheckInvariants(&why);
  r.AddCheck("check_invariants", invariants,
             invariants ? "CheckInvariants() holds at the end of the run"
                        : why);

  // --- Metrics ---
  const double setup = MedianOf(setup_s);
  const double first = MedianOf(first_ms);
  const double cumulative = MedianOf(cumulative_ms);
  r.Headline("first_query_ms", first, "ms");
  r.Headline("cumulative_query_ms", cumulative, "ms");
  const double p50 = MedianOf(converged_q.p50) * 1e3;
  const double p99 = MedianOf(converged_q.tail) * 1e3;
  r.Headline("query_p50_us", p50, "us");
  r.Headline("query_p99_us", p99, "us");
  r.Headline("setup_s", setup, "s");
  r.Headline("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "setup_s", setup, "s");
  r.Gated("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "cold_ms", first, "ms");
  GateScaled(&r, gauge, "query_p50_us", p50, "us");
  GateScaled(&r, gauge, "query_tail_us", p99, "us");
  GateScaled(&r, gauge, "ops_per_s",
             static_cast<double>(nq) / (cumulative / 1e3), "1/s",
             /*rate=*/true);
  AddGaugeReport(gauge, a.corrupt == "host_gauge", &r);
  Samples firsts, cumulatives;
  for (double v : first_ms) firsts.Add(v);
  for (double v : cumulative_ms) cumulatives.Add(v);
  r.Timing("first_query (per cold episode and probe)", firsts);
  r.Timing("cumulative_query (per cold episode)", cumulatives);
  r.Timing("cold-pass query", cold, 1e3, "us");
  r.Timing("converged-pass query", converged, 1e3, "us");
  r.Note("config: n=" + std::to_string(data.size()) +
         " queries=" + std::to_string(nq) + " selectivity=1e-3 episodes=" +
         std::to_string(episodes));

  if (tr->on()) {
    // Query types the stream itself does not carry, on the converged index
    // of the last episode: point, count and kNN probes at the stream's own
    // query boxes.
    {
      PhaseSpan phase(tr, "adaptive.typed_probe");
      const std::size_t step = std::max<std::size_t>(1, nq / 200);
      for (std::size_t i = 0; i < nq; i += step) {
        const Box3& b = boxes[i];
        TracedOp(index.get(), Op3::MakeQuery(quasii::PointQuery<3>(b.Center())),
                 &sinks, tr, i);
        TracedOp(index.get(), Op3::MakeQuery(quasii::CountQuery<3>(b)), &sinks,
                 tr, i);
        TracedOp(index.get(),
                 Op3::MakeQuery(quasii::KNearestQuery<3>(b.Center(), 10)),
                 &sinks, tr, i);
      }
    }
    index.reset();
    AddQuasiiLayers(*tr, episodes, &r);
    RunCrackArrayProbe(data, boxes[0], a.seed, tr, &r);
    for (const char* m :
         {"quasii.pending_rows", "quasii.tombstones", "object_store.insert_us",
          "object_store.erase_us", "persist.*", "wire.*", "server.*",
          "serve.*", "generator.lag_p99_ms"}) {
      r.LayerNotLoaded(m, "read-only in-process workload");
    }
  }
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTIVE_UNIFORM_H_

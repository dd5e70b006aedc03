#ifndef PERFBENCH_READWRITE_CLUSTERED_H_
#define PERFBENCH_READWRITE_CLUSTERED_H_

// Workload `readwrite_clustered`: writes beside reads on a converged index.
// 2^20 uniform boxes, the paper's clustered query footprint at selectivity
// 1e-4 (Section 6.1 default), pre-converged and snapshotted during set-up.
// The run replays passes of `DefaultReadWriteMix()` over the footprint; a
// write is acknowledged only after its WAL append (group commit,
// `FsyncPolicy::kEveryN` with n = 8). The run ends by recovering fresh
// indexes from the snapshot plus the WAL.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "reference.h"
#include "scan/scan_index.h"

namespace perfbench {

/// Digest of one query's answer: the id set, or the count of a count query.
inline std::uint64_t AnswerDigest(const Op3& op,
                                  const quasii::bench::TimedExec& e,
                                  const std::vector<ObjectId>& ids) {
  if (op.query().type() == quasii::QueryType::kCount) return e.results;
  return ResultDigest(ids);
}

inline Report RunReadWriteClustered(const Args& a, Tracer* tr) {
  namespace qb = quasii::bench;
  namespace qp = quasii::persist;
  Report r;
  qb::BenchConfig cfg;
  cfg.dataset = "uniform";
  cfg.workload = "clustered";
  cfg.n = Scaled(a, std::size_t{1} << 20, 4096);
  cfg.queries = static_cast<int>(Scaled(a, 4000, 200));
  cfg.selectivity = 1e-4;
  cfg.seed = a.seed;
  const std::string snap_path = a.workdir + "/readwrite.snapshot";
  const std::string wal_path = a.workdir + "/readwrite.wal";
  constexpr std::size_t kEveryN = 8;

  // --- Set-up (three times; `setup_s` is the median): generate, build and
  // pre-converge the index on the footprint, write one snapshot. ---
  Tracer untraced(false);
  Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  std::unique_ptr<Quasii3> index;
  std::vector<double> setup_s, snapshot_ms;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t preconverge_cracks = 0;
  bool snapshot_ok = true;
  qb::RunSinks sinks;
  HostGauge gauge(&data);
  for (int rep = 0; rep < 3; ++rep) {
    // Only the last repetition is traced: its pre-convergence is the
    // workload's one cold pass (the run itself reads converged slices).
    Tracer* t_rep = rep == 2 ? tr : &untraced;
    index.reset();
    data = Dataset3();
    quasii::Timer t;
    qb::MakeBenchInputs(cfg, &data, &universe, &boxes);
    index = std::make_unique<Quasii3>(data);
    {
      PhaseSpan phase(t_rep, "readwrite.setup_preconverge");
      // (Negative test: one pass cannot both converge and confirm it.)
      const int max_passes = a.corrupt == "preconverged" ? 1 : 4;
      for (int pass = 0; pass < max_passes; ++pass) {
        const std::uint64_t before = index->stats().cracks;
        for (std::size_t i = 0; i < boxes.size(); ++i) {
          TracedOp(index.get(),
                   Op3::MakeQuery(quasii::RangeQuery<3>(boxes[i])), &sinks,
                   t_rep, i);
        }
        preconverge_cracks = index->stats().cracks - before;
        if (preconverge_cracks == 0) break;
      }
    }
    quasii::Timer ts;
    const std::int32_t span = t_rep->Open("persist.snapshot_write", 0);
    snapshot_ok = snapshot_ok && qp::WriteSnapshot<3>(*index, snap_path,
                                                      &snapshot_bytes) ==
                                     qp::PersistError::kNone;
    t_rep->Close(span);
    snapshot_ms.push_back(ts.Millis());
    setup_s.push_back(t.Seconds());
    gauge.Sample();
  }
  const std::size_t n = data.size();
  const std::size_t footprint = boxes.size();
  r.AddCheck("preconverged", preconverge_cracks == 0 && snapshot_ok,
             "set-up converged the footprint (last pass cracked " +
                 std::to_string(preconverge_cracks) +
                 " times) and wrote the snapshot");

  // --- Run: episodes of a fixed op stream, each from the set-up state. The
  // stream is `kPasses` passes of `DefaultReadWriteMix()` over the
  // footprint; pass k draws its own type interleave and uses disjoint id
  // spaces (fresh insert ids from n + k * footprint, erase victims from the
  // k-th slice of the initial ids), so every mutation is valid. Restarting
  // every episode from the snapshot keeps the work of an episode fixed
  // however many episodes the time budget allows. ---
  constexpr std::size_t kPasses = 3;
  // Throughput is also printed per window of this many consecutive ops: it
  // falls through an episode as inserted rows pile up as root slices.
  constexpr std::size_t kWindowOps = 1000;
  constexpr int kMaxEpisodes = 32;
  const ObjectId pool = static_cast<ObjectId>(n / kPasses);
  qb::WorkloadSpec spec;
  spec.mix = qb::DefaultReadWriteMix();
  spec.knn_k = 10;
  spec.seed = a.seed + 2;
  const quasii::Rng base(spec.seed);
  std::vector<Op3> ops;
  for (std::size_t k = 0; k < kPasses; ++k) {
    std::vector<Op3> pass = qb::MakeOpStream(
        boxes, 0, footprint, spec, base.Split(k),
        static_cast<ObjectId>(n + k * footprint),
        static_cast<ObjectId>(k * pool), static_cast<ObjectId>((k + 1) * pool));
    for (Op3& op : pass) ops.push_back(std::move(op));
  }

  const Dataset3 empty;
  Samples reads, writes;
  EpisodeQuantiles read_q;
  std::vector<double> window_ops_per_s, episode_ops_per_s, recover_ms;
  double rss = 0;
  std::uint64_t attempted = 0, failed = 0, mutations = 0, rejected = 0;
  std::uint64_t oracle_checked = 0, oracle_matched = 0;
  std::uint64_t wal_records = 0, wal_bytes = 0, wal_syncs = 0;
  double pending_sum = 0, tombstone_sum = 0, gauge_samples = 0;
  bool wal_ok = true, content_ok = true, restored_ok = true;
  std::size_t recovered_ok = 0, repeats_ok = 0;
  std::uint64_t live = 0, first_answers = 0;
  int episodes = 0;
  quasii::Timer run;
  for (;;) {
    if (episodes > 0) {
      index = std::make_unique<Quasii3>(empty);
      restored_ok = restored_ok &&
                    qp::RecoverIndex<3>(index.get(), snap_path, "").ok();
    }
    std::remove(wal_path.c_str());
    qp::WalWriter<3> wal;
    wal_ok = wal_ok && wal.Open(wal_path, qp::FsyncPolicy::kEveryN,
                                kEveryN) == qp::PersistError::kNone;
    if (episodes == 0 && a.corrupt == "mutations_accepted") {
      // Negative test: inserting a live id must be refused and counted.
      ++attempted;
      ++mutations;
      if (!index->Insert(0, boxes[0])) {
        ++rejected;
        ++failed;
      }
    }
    std::vector<std::pair<std::size_t, std::uint64_t>> sampled;
    Samples episode_reads;
    std::uint64_t answers = quasii::kFnvBasis;
    {
      PhaseSpan phase(tr, "readwrite.episode");
      quasii::Timer episode, window;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i > 0 && i % kWindowOps == 0) {
          window_ops_per_s.push_back(static_cast<double>(kWindowOps) /
                                     window.Seconds());
          window.Reset();
        }
        const Op3& op = ops[i];
        ++attempted;
        if (!op.is_mutation()) {
          const qb::TimedExec e = TracedOp(index.get(), op, &sinks, tr, i);
          episode_reads.Add(e.ms);
          if (i % 101 == 0) {
            sampled.emplace_back(i, AnswerDigest(op, e, sinks.result));
            answers = quasii::FnvMix(answers, sampled.back().second);
          }
        } else {
          ++mutations;
          const std::int32_t span = tr->Push("readwrite.write", i);
          quasii::Timer t;
          const qb::TimedExec e = TracedOp(index.get(), op, &sinks, tr, i);
          bool acked = false;
          if (e.results == 1 && wal_ok) {
            qp::WalRecord<3> rec;
            rec.lsn = index->store().version();
            rec.id = op.id();
            rec.op = op.kind() == quasii::RequestKind::kInsert
                         ? qp::WalOp::kInsert
                         : qp::WalOp::kErase;
            if (rec.op == qp::WalOp::kInsert) rec.box = op.box();
            const std::int32_t ws = tr->Open("persist.wal_append", i);
            acked = wal.Append(rec) == qp::PersistError::kNone;
            tr->Close(ws);
            wal_ok = acked;
          }
          writes.Add(acked ? t.Millis() : kFailedMs);
          tr->Pop(span);
          if (e.results != 1) ++rejected;
          if (!acked) ++failed;
        }
        if (tr->on() && i % 64 == 0) {
          pending_sum += static_cast<double>(index->array().pending_count());
          tombstone_sum += static_cast<double>(index->array().tombstones());
          gauge_samples += 1;
        }
      }
      window_ops_per_s.push_back(static_cast<double>(kWindowOps) /
                                 window.Seconds());
      episode_ops_per_s.push_back(static_cast<double>(ops.size()) /
                                  episode.Seconds());
    }
    reads.Append(episode_reads);
    read_q.Add(episode_reads, 0.9);
    wal_ok = wal_ok && wal.Sync() == qp::PersistError::kNone;
    wal_records = wal.records_appended();
    wal_bytes = wal.bytes_written();
    wal_syncs = wal.syncs();
    wal.Close();
    const std::uint64_t checksum = quasii::IndexContentChecksum(*index);

    if (episodes == 0) {
      // The Scan oracle replays the stream: every mutation, and the sampled
      // queries at their positions.
      quasii::ScanIndex<3> oracle(data);
      std::size_t next = 0;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op3& op = ops[i];
        if (op.is_mutation()) {
          if (op.kind() == quasii::RequestKind::kInsert) {
            oracle.Insert(op.id(), op.box());
          } else {
            oracle.Erase(op.id());
          }
          continue;
        }
        if (next >= sampled.size() || sampled[next].first != i) continue;
        qb::RunSinks oracle_sinks;
        const qb::TimedExec e = qb::ExecTimedOp(&oracle, op, &oracle_sinks);
        std::uint64_t expect = AnswerDigest(op, e, oracle_sinks.result);
        if (a.corrupt == "scan_oracle" && oracle_checked == 0) expect ^= 1;
        ++oracle_checked;
        oracle_matched += expect == sampled[next].second;
        ++next;
      }
      std::uint64_t expected = quasii::IndexContentChecksum(oracle);
      if (a.corrupt == "content_checksum") expected ^= 1;
      content_ok = checksum == expected;
      live = checksum;
      first_answers = answers;
      if (a.corrupt == "episode_repeat") first_answers ^= 1;
    }
    repeats_ok += answers == first_answers && checksum == live;

    // Recovery: a fresh index from the snapshot plus this episode's WAL.
    if (episodes == 0 && a.corrupt == "recovery_checksum") {
      // Negative test: tear the last WAL record, as a crash mid-append would.
      qp::TruncateFile(wal_path, wal_bytes - 5);
    }
    {
      auto fresh = std::make_unique<Quasii3>(empty);
      const std::int32_t span = tr->Open("persist.recover", 0);
      quasii::Timer t;
      const qp::RecoveryResult res =
          qp::RecoverIndex<3>(fresh.get(), snap_path, wal_path);
      recover_ms.push_back(t.Millis());
      tr->Close(span);
      recovered_ok += res.ok() && quasii::IndexContentChecksum(*fresh) == checksum;
    }
    gauge.Sample();
    ++episodes;
    if (episodes == kRssEpisodes) rss = PeakRssMb();
    if (episodes >= kRssEpisodes &&
        (run.Seconds() >= a.seconds || episodes == kMaxEpisodes)) {
      break;
    }
  }
  r.CountOps(attempted, failed);

  // --- Output checks ---
  r.AddCheck("mutations_accepted", rejected == 0 && wal_ok && restored_ok,
             std::to_string(mutations - rejected) + "/" +
                 std::to_string(mutations) +
                 " mutations accepted and WAL-acknowledged");
  r.AddCheck("scan_oracle", oracle_matched == oracle_checked,
             std::to_string(oracle_matched) + "/" +
                 std::to_string(oracle_checked) +
                 " sampled answers match a Scan index replaying the stream");
  r.AddCheck("content_checksum", content_ok,
             "IndexContentChecksum of the live index equals the Scan replay's");
  r.AddCheck("episode_repeat", repeats_ok == static_cast<std::size_t>(episodes),
             std::to_string(repeats_ok) + "/" + std::to_string(episodes) +
                 " episodes reproduce the first episode's sampled answers and "
                 "final checksum");
  r.AddCheck("recovery_checksum",
             recovered_ok == static_cast<std::size_t>(episodes),
             std::to_string(recovered_ok) + "/" + std::to_string(episodes) +
                 " recoveries from snapshot + WAL reproduce the live index "
                 "checksum");

  // --- Metrics ---
  const double setup = MedianOf(setup_s);
  const double recover = MedianOf(recover_ms);
  const double ops_per_s = MedianOf(episode_ops_per_s);
  const double p50 = MedianOf(read_q.p50) * 1e3;
  const double p90 = MedianOf(read_q.tail) * 1e3;
  r.Headline("query_p50_us", p50, "us");
  r.Headline("query_p90_us", p90, "us");
  r.Headline("query_p99_us", reads.P(0.99) * 1e3, "us");
  r.Headline("ops_per_s", ops_per_s, "ops/s");
  r.Headline("write_p50_us", writes.Median() * 1e3, "us");
  r.Headline("recover_ms", recover, "ms");
  r.Headline("setup_s", setup, "s");
  r.Headline("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "setup_s", setup, "s");
  r.Gated("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "cold_ms", recover, "ms");
  GateScaled(&r, gauge, "query_p50_us", p50, "us");
  GateScaled(&r, gauge, "query_tail_us", p90, "us");
  GateScaled(&r, gauge, "ops_per_s", ops_per_s, "1/s", /*rate=*/true);
  AddGaugeReport(gauge, a.corrupt == "host_gauge", &r);
  Samples recovers, rates;
  for (double v : recover_ms) recovers.Add(v);
  for (double v : window_ops_per_s) rates.Add(v);
  r.Timing("read (beside writes)", reads, 1e3, "us");
  r.Timing("acknowledged write", writes, 1e3, "us");
  r.Timing("recover", recovers);
  r.Timing("ops_per_s (per 1000-op window)", rates, 1.0, "ops/s");
  Samples episode_rates;
  for (double v : episode_ops_per_s) episode_rates.Add(v);
  r.Timing("ops_per_s (per episode)", episode_rates, 1.0, "ops/s");
  r.Note("config: n=" + std::to_string(n) + " footprint=" +
         std::to_string(footprint) + " ops/episode=" +
         std::to_string(ops.size()) +
         " selectivity=1e-4 mix=DefaultReadWriteMix fsync=every_n(8) "
         "episodes=" + std::to_string(episodes) + " wal_records/episode=" +
         std::to_string(wal_records));

  if (tr->on()) {
    {
      const std::int32_t span = tr->Open("persist.snapshot_read", 0);
      qp::SnapshotContents<3> snap = qp::ReadSnapshot<3>(snap_path);
      tr->Close(span);
      if (snap.error != qp::PersistError::kNone) {
        r.AddCheck("snapshot_read", false, "ReadSnapshot failed");
      }
    }
    AddQuasiiLayers(*tr, 1.0, &r);
    const double g = gauge_samples > 0 ? gauge_samples : 1;
    r.Layer("quasii.pending_rows", pending_sum / g, "rows");
    r.Layer("quasii.tombstones", tombstone_sum / g, "rows");
    r.Layer("object_store.insert_us",
            SpanSamples(*tr, "object_store.insert").Median() * 1e3, "us");
    r.Layer("object_store.erase_us",
            SpanSamples(*tr, "object_store.erase").Median() * 1e3, "us");
    const double recs = wal_records > 0 ? static_cast<double>(wal_records) : 1;
    r.Layer("persist.wal_append_us",
            SpanSamples(*tr, "persist.wal_append").Median() * 1e3, "us");
    r.Layer("persist.wal_syncs_per_write", static_cast<double>(wal_syncs) / recs,
            "syncs");
    r.Layer("persist.wal_bytes_per_write",
            static_cast<double>(wal_bytes - qp::kWalHeaderSize) / recs, "B");
    r.Layer("persist.snapshot_write_ms", MedianOf(snapshot_ms), "ms");
    r.Layer("persist.snapshot_read_ms",
            SpanSamples(*tr, "persist.snapshot_read").Median(), "ms");
    r.Layer("persist.snapshot_bytes_per_object",
            static_cast<double>(snapshot_bytes) / static_cast<double>(n), "B");
    index.reset();
    RunCrackArrayProbe(data, boxes[0], a.seed, tr, &r);
    for (const char* m : {"wire.*", "server.*", "serve.*",
                          "generator.lag_p99_ms"}) {
      r.LayerNotLoaded(m, "in-process workload");
    }
  }
  std::remove(wal_path.c_str());
  std::remove(snap_path.c_str());
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_READWRITE_CLUSTERED_H_

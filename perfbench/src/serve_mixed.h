#ifndef PERFBENCH_SERVE_MIXED_H_
#define PERFBENCH_SERVE_MIXED_H_

// Workload `serve_mixed`: what a user of the query server sees. An
// in-process `QueryServer` (pool_threads = 2, exec_threads = 1) over a
// QUASII index of 2^20 uniform boxes, pre-converged on its uniform query
// footprint during set-up, reached through two socketpair connections. Each
// episode restarts the server from the set-up snapshot, then one generator
// thread multiplexes both connections with `ppoll()`:
//  - open loop: requests leave on a fixed schedule at `kOpenLoopRate`, and
//    each is timed from when it was due;
//  - closed loop: each connection keeps `kWindow` requests outstanding, to
//    measure capacity.
// The whole process runs on one CPU (`PinToOneCpu`), as a server given one
// core would: on a shared virtual machine, hand-offs between threads on
// different vCPUs made latency and capacity follow the hypervisor's
// scheduling of four vCPUs rather than the server's work.

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "reference.h"
#include "scan/scan_index.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

/// Open-loop send rate (requests per second over both connections), about
/// half of the closed-loop capacity measured on a 4-core x86-64 box, and the
/// length of one episode's open-loop phase.
inline constexpr double kOpenLoopRate = 2000;
inline constexpr double kOpenLoopSeconds = 3;
/// Requests of one episode's closed-loop phase.
inline constexpr std::size_t kClosedPerEpisode = 8000;
/// Requests each connection keeps outstanding in the closed loop (the
/// server's admission bound is 256).
inline constexpr std::size_t kWindow = 8;
inline constexpr int kConnections = 2;
/// Mutation id spaces are split for this many stream cycles.
inline constexpr std::size_t kMaxCycles = 256;
/// Latency quantiles and closed-loop rates are taken per window of this
/// many consecutive responses, and the run reports their medians over all
/// windows: a burst of host interference (a descheduled vCPU stalls every
/// thread on it for milliseconds) moves the windows it falls in, not the
/// run's figure.
inline constexpr std::size_t kWindowResponses = 500;

namespace serve_internal {

/// Confines the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1 when the
/// affinity cannot be read or set.
inline int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

using Server = quasii::server::QueryServer<3>;
using Response3 = quasii::Response<3>;

/// One connection of the generator: its op stream (grown one footprint
/// cycle at a time) and the requests in flight on it.
struct Conn {
  int fd = -1;
  quasii::server::WireClient<3> client;
  std::vector<Op3> ops;
  std::size_t next_op = 0;
  /// Per sent op (indexed like `ops`): due time, span, and the outcome.
  struct Sent {
    std::int64_t due_ns = 0;
    std::int32_t span = -1;
    bool done = false;
    bool ok = false;
  };
  std::vector<Sent> sent;
  std::size_t in_flight = 0;
  bool dead = false;
};

struct ServeStats {
  Samples latency, reads, writes, lag;
  std::uint64_t attempted = 0, failed = 0;
  /// p50 and p90 of each full window of responses.
  EpisodeQuantiles windows;
  Samples window;

  void AddLatency(double ms, bool write) {
    latency.Add(ms);
    (write ? writes : reads).Add(ms);
    window.Add(ms);
    if (window.size() == kWindowResponses) {
      windows.Add(window, 0.9);
      window = Samples();
    }
  }

  void Merge(const ServeStats& o) {
    windows.p50.insert(windows.p50.end(), o.windows.p50.begin(),
                       o.windows.p50.end());
    windows.tail.insert(windows.tail.end(), o.windows.tail.begin(),
                        o.windows.tail.end());
    latency.Append(o.latency);
    reads.Append(o.reads);
    writes.Append(o.writes);
    lag.Append(o.lag);
    attempted += o.attempted;
    failed += o.failed;
  }
};

class Generator {
 public:
  Generator(const std::vector<Box3>& boxes, std::size_t n, std::uint64_t seed,
            Tracer* tr)
      : boxes_(boxes), n_(n), tr_(tr) {
    spec_.mix.range = 0.6;
    spec_.mix.point = 0.2;
    spec_.mix.count = 0.05;
    spec_.mix.knn = 0.05;
    spec_.mix.insert = 0.07;
    spec_.mix.erase = 0.03;
    spec_.knn_k = 10;
    spec_.seed = seed + 2;
  }

  Conn& conn(int c) { return conns_[c]; }

  /// Appends cycle `cycle` of connection `c`'s stream: the connection's
  /// half of the footprint, typed with its own `Rng::Split` child stream and
  /// disjoint insert/erase id spaces (the `MakeThreadOpStreams` recipe,
  /// extended over repeated cycles).
  void AddCycle(int c) {
    const std::size_t k = cycles_[c]++ * kConnections + static_cast<std::size_t>(c);
    const std::size_t half = boxes_.size() / kConnections;
    const ObjectId pool =
        static_cast<ObjectId>(n_ / (kMaxCycles * kConnections));
    std::vector<Op3> more = quasii::bench::MakeOpStream(
        boxes_, half * static_cast<std::size_t>(c),
        half * static_cast<std::size_t>(c + 1), spec_,
        quasii::Rng(spec_.seed).Split(k),
        static_cast<ObjectId>(n_ + k * boxes_.size()),
        static_cast<ObjectId>(k * pool), static_cast<ObjectId>((k + 1) * pool));
    Conn& cn = conns_[c];
    for (Op3& op : more) cn.ops.push_back(std::move(op));
    cn.sent.resize(cn.ops.size());
  }

  /// Makes sure connection `c` has at least `count` more ops generated.
  void Reserve(int c, std::size_t count) {
    while (conns_[c].ops.size() < conns_[c].next_op + count &&
           cycles_[c] < kMaxCycles) {
      AddCycle(c);
    }
  }

  /// Encodes and sends connection `c`'s next op, due at `due_ns`.
  bool Send(int c, std::int64_t due_ns, std::int32_t parent,
            std::uint64_t request) {
    Conn& cn = conns_[c];
    Reserve(c, 1);
    if (cn.dead || cn.next_op >= cn.ops.size()) return false;
    const std::size_t i = cn.next_op++;
    Conn::Sent& s = cn.sent[i];
    s.due_ns = due_ns;
    s.span = tr_->Open("serve.request", request, parent);
    const std::int32_t enc = tr_->Open("wire.encode", request, s.span);
    std::string payload;
    quasii::ByteWriter w(&payload);
    w.U64(i);
    w.U8(0);
    cn.ops[i].Serialize(&w);
    tr_->Close(enc);
    ++cn.in_flight;
    // A failed write leaves the request in flight on a dead connection;
    // `Abandon` counts it. `false` means nothing was sent at all.
    if (!quasii::server::WriteFrame(cn.fd, payload)) Fail(c);
    return true;
  }

  /// Reads one response from connection `c` and settles its request.
  /// Returns the settled op index, or -1 on a transport failure.
  long Receive(int c, ServeStats* st) {
    Conn& cn = conns_[c];
    std::string payload;
    if (quasii::server::ReadFrame(cn.fd, &payload) !=
            quasii::server::WireError::kNone ||
        payload.size() < 8) {
      Fail(c);
      return -1;
    }
    const std::int64_t now = tr_->NowNs();
    quasii::ByteReader r(payload.data(), 8);
    const std::uint64_t i = r.U64();
    if (i >= cn.next_op || cn.sent[i].done) {
      Fail(c);
      return -1;
    }
    Conn::Sent& s = cn.sent[i];
    const std::int32_t dec =
        tr_->Open("wire.decode", tr_->on() ? tr_->Get(s.span)->request : 0,
                  s.span);
    const auto resp =
        Response3::TryParse(std::string_view(payload).substr(8));
    tr_->Close(dec);
    tr_->Close(s.span);
    s.done = true;
    --cn.in_flight;
    const Op3& op = cn.ops[i];
    s.ok = resp && resp->status == quasii::ResponseStatus::kOk &&
           (!op.is_mutation() || resp->accepted);
    if (resp && resp->status == quasii::ResponseStatus::kOverloaded) {
      ++overloaded_;
    }
    const double ms = s.ok ? static_cast<double>(now - s.due_ns) / 1e6
                           : kFailedMs;
    ++st->attempted;
    if (!s.ok) ++st->failed;
    st->AddLatency(ms, op.is_mutation());
    return static_cast<long>(i);
  }

  /// Waits up to `timeout_ns` for responses and settles every one that
  /// arrived. Returns the number settled.
  int Poll(std::int64_t timeout_ns, ServeStats* st) {
    pollfd fds[kConnections];
    for (int c = 0; c < kConnections; ++c) {
      fds[c].fd = conns_[c].dead ? -1 : conns_[c].fd;
      fds[c].events = POLLIN;
      fds[c].revents = 0;
    }
    if (timeout_ns < 0) timeout_ns = 0;
    timespec ts{};
    ts.tv_sec = timeout_ns / 1000000000;
    ts.tv_nsec = timeout_ns % 1000000000;
    if (ppoll(fds, kConnections, &ts, nullptr) <= 0) return 0;
    int settled = 0;
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (Receive(c, st) >= 0) ++settled;
    }
    return settled;
  }

  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Conn& c : conns_) n += c.dead ? 0 : c.in_flight;
    return n;
  }

  /// Counts every request still in flight on a dead connection as failed.
  void Abandon(ServeStats* st) {
    for (int c = 0; c < kConnections; ++c) {
      Conn& cn = conns_[c];
      for (std::size_t i = 0; i < cn.next_op; ++i) {
        if (cn.sent[i].done) continue;
        cn.sent[i].done = true;
        ++st->attempted;
        ++st->failed;
      }
      cn.in_flight = 0;
    }
  }

  std::uint64_t overloaded() const { return overloaded_; }

 private:
  void Fail(int c) { conns_[c].dead = true; }

  const std::vector<Box3>& boxes_;
  std::size_t n_;
  Tracer* tr_;
  quasii::bench::WorkloadSpec spec_;
  Conn conns_[kConnections];
  std::size_t cycles_[kConnections] = {0, 0};
  std::uint64_t overloaded_ = 0;
};

}  // namespace serve_internal

inline Report RunServeMixed(const Args& a, Tracer* tr) {
  namespace qb = quasii::bench;
  namespace qp = quasii::persist;
  using serve_internal::Conn;
  using serve_internal::Generator;
  using serve_internal::Server;
  using serve_internal::ServeStats;
  Report r;
  const int cpu = serve_internal::PinToOneCpu();
  qb::BenchConfig cfg;
  cfg.dataset = "uniform";
  cfg.workload = "uniform";
  cfg.n = Scaled(a, std::size_t{1} << 20, 4096);
  cfg.queries = static_cast<int>(Scaled(a, 8000, 400));
  cfg.selectivity = 1e-4;
  cfg.seed = a.seed;
  const std::string snap_prefix = a.workdir + "/serve.snapshot";
  const std::string snap_path = snap_prefix + ".0";
  Server::Options opts;
  opts.pool_threads = 2;
  opts.exec_threads = 1;

  // --- Set-up (three times; `setup_s` is the median): generate, build and
  // pre-converge the index on the footprint, then start a server on it and
  // have it write the snapshot every episode restarts from. Only the last
  // repetition is traced. ---
  Tracer untraced(false);
  Dataset3 data;
  Box3 universe;
  std::vector<Box3> boxes;
  std::vector<double> setup_s, snapshot_request_ms;
  std::uint64_t verify_cracks = 0;
  bool setup_ok = true;
  qb::RunSinks sinks;
  HostGauge gauge(&data);
  for (int rep = 0; rep < 3; ++rep) {
    Tracer* t_rep = rep == 2 ? tr : &untraced;
    data = Dataset3();
    quasii::Timer t;
    qb::MakeBenchInputs(cfg, &data, &universe, &boxes);
    auto index = std::make_unique<Quasii3>(data);
    {
      PhaseSpan phase(t_rep, "serve.setup_preconverge");
      // (Negative test: skipping pre-convergence leaves cracking behind.)
      const std::size_t count = a.corrupt == "preconverged" ? 0 : boxes.size();
      for (std::size_t i = 0; i < count; ++i) {
        TracedOp(index.get(), Op3::MakeQuery(quasii::RangeQuery<3>(boxes[i])),
                 &sinks, t_rep, i);
      }
    }
    {
      // Verification pass: the first cycle's typed reads; only kNN (whose
      // expanding ring may probe beyond the footprint) may still crack.
      PhaseSpan phase(t_rep, "serve.setup_verify");
      Generator gen(boxes, data.size(), a.seed, &untraced);
      verify_cracks = 0;
      for (int c = 0; c < kConnections; ++c) {
        gen.AddCycle(c);
        for (const Op3& op : gen.conn(c).ops) {
          if (op.is_mutation()) continue;
          const std::uint64_t before = index->stats().cracks;
          TracedOp(index.get(), op, &sinks, t_rep, 0);
          if (op.query().type() != quasii::QueryType::kKNearest) {
            verify_cracks += index->stats().cracks - before;
          }
        }
      }
    }
    Server::Options sopts = opts;
    sopts.snapshot_path = snap_prefix;
    Server server(std::vector<quasii::SpatialIndex<3>*>{index.get()}, sopts);
    int sv[2];
    setup_ok = setup_ok && server.Start(nullptr) &&
               socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0;
    if (setup_ok) {
      server.AddConnection(sv[0]);
      quasii::server::WireClient<3> client;
      client.Adopt(sv[1]);
      setup_ok = client.Handshake();
      quasii::Timer ts;
      const std::int32_t span = t_rep->Open("persist.snapshot_write", 0);
      auto reply = setup_ok ? client.Call(0, Op3::MakeSnapshot()) : std::nullopt;
      t_rep->Close(span);
      snapshot_request_ms.push_back(ts.Millis());
      setup_ok = reply && reply->response.status == quasii::ResponseStatus::kOk;
    }
    server.Stop();
    setup_s.push_back(t.Seconds());
    gauge.Sample();
  }
  const std::size_t n = data.size();
  r.AddCheck("preconverged", verify_cracks == 0 && setup_ok,
             "the footprint's reads ran crack-free after pre-convergence (" +
                 std::to_string(verify_cracks) +
                 " cracks) and the server wrote its snapshot");

  // --- Episodes: restart a server from the snapshot (timed to its first
  // answer), then an open-loop and a closed-loop phase of fixed size. Every
  // episode starts from the same state and replays the same streams, so its
  // work does not depend on how many episodes fit in the run. ---
  const std::size_t open_per_episode =
      static_cast<std::size_t>(kOpenLoopRate * kOpenLoopSeconds);
  constexpr int kMaxEpisodes = 32;
  const Dataset3 empty;
  const Op3 first_read = Op3::MakeQuery(quasii::RangeQuery<3>(boxes[0]));
  std::uint64_t expected_restart;
  {
    const quasii::ScanIndex<3> initial(data);
    expected_restart = quasii::IndexContentChecksum(initial);
    if (a.corrupt == "restart_checksum") expected_restart ^= 1;
  }
  ServeStats open, closed;
  std::vector<double> restart_ms, capacity_rps, window_rps;
  std::size_t restarts_ok = 0, checksums_ok = 0;
  bool dropped = false;  // negative test: one accepted mutation left out
  std::uint64_t refused = 0;
  Server::Counters counters;
  double pending_rows = 0, tombstones = 0;
  double rss = 0;
  int episodes = 0;
  quasii::Timer run;
  for (;;) {
    auto index = std::make_unique<Quasii3>(empty);
    std::unique_ptr<Server> server;
    Generator gen(boxes, n, a.seed, tr);
    bool ok = true;
    {
      PhaseSpan phase(tr, "serve.restart");
      quasii::Timer t;
      ok = qp::RecoverIndex<3>(index.get(), snap_path, "").ok();
      server = std::make_unique<Server>(
          std::vector<quasii::SpatialIndex<3>*>{index.get()}, opts);
      ok = ok && server->Start(nullptr);
      for (int c = 0; c < kConnections && ok; ++c) {
        int sv[2];
        ok = socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0;
        if (!ok) break;
        server->AddConnection(sv[0]);
        Conn& cn = gen.conn(c);
        cn.client.Adopt(sv[1]);
        cn.fd = sv[1];
        ok = cn.client.Handshake();
      }
      auto reply = ok ? gen.conn(0).client.Call(0, first_read) : std::nullopt;
      ok = reply && reply->response.status == quasii::ResponseStatus::kOk;
      restart_ms.push_back(t.Millis());
    }
    restarts_ok += ok && quasii::IndexContentChecksum(*index) == expected_restart;
    for (int c = 0; c < kConnections; ++c) {
      gen.Reserve(c, open_per_episode / 2 + 1);
    }
    if (episodes == 0 && a.corrupt == "requests_ok") {
      // Negative test: the first request erases an id that was never live.
      Conn& cn = gen.conn(0);
      cn.ops.insert(cn.ops.begin(), Op3::MakeErase(0xFFFFFFF0u));
      cn.sent.resize(cn.ops.size());
    }
    const Server::Counters c0 = server->counters();

    // Open loop: a fixed schedule at kOpenLoopRate, alternating connections;
    // latency is measured from each request's due time.
    {
      PhaseSpan phase(tr, "serve.open_loop");
      ServeStats ep;
      const std::int64_t period =
          static_cast<std::int64_t>(1e9 / kOpenLoopRate);
      const std::int64_t t0 = tr->NowNs() + 1000000;
      std::size_t sent = 0;
      while (sent < open_per_episode) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(sent) * period;
        const std::int64_t now = tr->NowNs();
        if (now < due) {
          gen.Poll(due - now, &ep);
          continue;
        }
        ep.lag.Add(static_cast<double>(now - due) / 1e6);
        if (!gen.Send(static_cast<int>(sent % kConnections), due, phase.id(),
                      sent)) {
          ++ep.attempted;
          ++ep.failed;
        }
        ++sent;
        gen.Poll(0, &ep);
      }
      const std::int64_t drain_end = tr->NowNs() + 10000000000LL;
      while (gen.in_flight() > 0 && tr->NowNs() < drain_end) {
        gen.Poll(100000000, &ep);
      }
      gen.Abandon(&ep);
      open.Merge(ep);
    }

    // Closed loop: kClosedPerEpisode requests, kWindow outstanding per
    // connection. The episode's rate is that number over the time to the
    // last answer; each window's rate is its responses over its duration.
    {
      PhaseSpan phase(tr, "serve.closed_loop");
      const std::int64_t start = tr->NowNs();
      const std::int64_t drain_end = start + 60000000000LL;
      std::size_t sent = 0, in_window = 0;
      std::int64_t window_start = start;
      std::uint64_t request = open_per_episode;
      while (tr->NowNs() < drain_end) {
        for (int c = 0; c < kConnections; ++c) {
          while (sent < kClosedPerEpisode && !gen.conn(c).dead &&
                 gen.conn(c).in_flight < kWindow) {
            if (!gen.Send(c, tr->NowNs(), phase.id(), request++)) break;
            ++sent;
          }
        }
        if (gen.in_flight() == 0) break;
        in_window += static_cast<std::size_t>(
            gen.Poll(100000000, &closed));
        if (in_window >= kWindowResponses) {
          const std::int64_t now = tr->NowNs();
          window_rps.push_back(static_cast<double>(in_window) /
                               (static_cast<double>(now - window_start) / 1e9));
          in_window = 0;
          window_start = now;
        }
      }
      capacity_rps.push_back(static_cast<double>(sent) /
                             (static_cast<double>(tr->NowNs() - start) / 1e9));
      gen.Abandon(&closed);
    }
    refused += gen.overloaded();
    const Server::Counters c1 = server->counters();
    counters.accepted += c1.accepted - c0.accepted;
    counters.overloaded += c1.overloaded - c0.overloaded;
    counters.batches += c1.batches - c0.batches;
    counters.batched_queries += c1.batched_queries - c0.batched_queries;
    server->Stop();
    pending_rows = static_cast<double>(index->array().pending_count());
    tombstones = static_cast<double>(index->array().tombstones());

    // In-process application of the accepted mutations: the connections'
    // id spaces are disjoint, so the final content does not depend on how
    // the server interleaved them.
    {
      quasii::ScanIndex<3> reference(data);
      for (int c = 0; c < kConnections; ++c) {
        const Conn& cn = gen.conn(c);
        for (std::size_t i = 0; i < cn.next_op; ++i) {
          const Op3& op = cn.ops[i];
          if (!op.is_mutation() || !cn.sent[i].ok) continue;
          if (a.corrupt == "server_checksum" && !dropped) {
            dropped = true;
            continue;
          }
          if (op.kind() == quasii::RequestKind::kInsert) {
            reference.Insert(op.id(), op.box());
          } else {
            reference.Erase(op.id());
          }
        }
      }
      checksums_ok += quasii::IndexContentChecksum(reference) ==
                      quasii::IndexContentChecksum(*index);
    }
    server.reset();
    index.reset();
    gauge.Sample();
    ++episodes;
    if (episodes == kRssEpisodes) rss = PeakRssMb();
    if (episodes >= kRssEpisodes &&
        (run.Seconds() >= a.seconds || episodes == kMaxEpisodes)) {
      break;
    }
  }

  // --- Output checks ---
  r.CountOps(open.attempted + closed.attempted, open.failed + closed.failed);
  // Admission refusals (`kOverloaded`) are load, not wrong answers: they
  // count in `failed_share` but do not fail the run.
  const std::uint64_t failed = open.failed + closed.failed;
  r.AddCheck("requests_ok", failed == refused,
             std::to_string(failed - refused) + " of " +
                 std::to_string(open.attempted + closed.attempted) +
                 " requests failed or were rejected (" +
                 std::to_string(refused) + " refused as overloaded)");
  r.AddCheck("server_checksum",
             checksums_ok == static_cast<std::size_t>(episodes),
             std::to_string(checksums_ok) + "/" + std::to_string(episodes) +
                 " episodes end with the checksum of an in-process "
                 "application of their accepted mutations");
  r.AddCheck("restart_checksum",
             restarts_ok == static_cast<std::size_t>(episodes),
             std::to_string(restarts_ok) + "/" + std::to_string(episodes) +
                 " restarts from the snapshot answered and hold the "
                 "pre-converged content");

  // --- Metrics ---
  const double setup = MedianOf(setup_s);
  const double restart = MedianOf(restart_ms);
  const double capacity = MedianOf(window_rps);
  const double p50 = MedianOf(open.windows.p50);
  const double p90 = MedianOf(open.windows.tail);
  r.Headline("serve_p50_ms", p50, "ms");
  r.Headline("serve_p90_ms", p90, "ms");
  r.Headline("serve_capacity_rps", capacity, "req/s");
  const double closed_p90 = MedianOf(closed.windows.tail);
  r.Headline("closed_p90_ms", closed_p90, "ms");
  r.Headline("restart_ms", restart, "ms");
  r.Headline("setup_s", setup, "s");
  r.Headline("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "setup_s", setup, "s");
  r.Gated("peak_rss_mb", rss, "MB");
  GateScaled(&r, gauge, "cold_ms", restart, "ms");
  GateScaled(&r, gauge, "query_p50_us", p50 * 1e3, "us");
  GateScaled(&r, gauge, "query_tail_us", closed_p90 * 1e3, "us");
  GateScaled(&r, gauge, "ops_per_s", capacity, "1/s", /*rate=*/true);
  AddGaugeReport(gauge, a.corrupt == "host_gauge", &r);
  Samples restarts, rates;
  for (double v : restart_ms) restarts.Add(v);
  for (double v : capacity_rps) rates.Add(v);
  r.Timing("open-loop request (from due time)", open.latency);
  r.Timing("open-loop read", open.reads);
  r.Timing("open-loop write", open.writes);
  r.Timing("generator lag", open.lag);
  r.Timing("restart to first answer", restarts);
  r.Timing("closed-loop rate (per episode)", rates, 1.0, "req/s");
  r.Note("config: n=" + std::to_string(n) + " footprint=" +
         std::to_string(boxes.size()) + " selectivity=1e-4 open_loop=" +
         std::to_string(open_per_episode) + " requests at " +
         std::to_string(static_cast<int>(kOpenLoopRate)) +
         "/s closed_loop=" + std::to_string(kClosedPerEpisode) +
         " requests window=" + std::to_string(kWindow) + "x" +
         std::to_string(kConnections) +
         " pool_threads=2 exec_threads=1 episodes=" +
         std::to_string(episodes) + " cpu=" +
         (cpu >= 0 ? std::to_string(cpu) : std::string("unpinned")));

  Samples window_p90;
  for (double v : open.windows.tail) window_p90.Add(v);
  r.Timing("open-loop p90 (per window)", window_p90);
  Samples window_rates;
  for (double v : window_rps) window_rates.Add(v);
  r.Timing("closed-loop rate (per window)", window_rates, 1.0, "req/s");

  if (tr->on()) {
    AddQuasiiLayers(*tr, 1.0, &r);
    r.Layer("quasii.pending_rows", pending_rows, "rows");
    r.Layer("quasii.tombstones", tombstones, "rows");
    r.Layer("persist.snapshot_write_ms", MedianOf(snapshot_request_ms), "ms");
    {
      const std::int32_t span = tr->Open("persist.snapshot_read", 0);
      qp::SnapshotContents<3> snap = qp::ReadSnapshot<3>(snap_path);
      tr->Close(span);
      r.Layer("persist.snapshot_read_ms",
              SpanSamples(*tr, "persist.snapshot_read").Median(), "ms");
      std::string raw;
      qp::ReadFile(snap_path, &raw);
      r.Layer("persist.snapshot_bytes_per_object",
              static_cast<double>(raw.size()) /
                  static_cast<double>(snap.live_count > 0 ? snap.live_count : 1),
              "B");
    }
    r.Layer("wire.encode_us", SpanSamples(*tr, "wire.encode").Median() * 1e3,
            "us");
    r.Layer("wire.decode_us", SpanSamples(*tr, "wire.decode").Median() * 1e3,
            "us");
    const double acc =
        counters.accepted > 0 ? static_cast<double>(counters.accepted) : 1;
    r.Layer("server.batched_share",
            static_cast<double>(counters.batched_queries) / acc, "fraction");
    r.Layer("server.mean_batch",
            counters.batches > 0
                ? static_cast<double>(counters.batched_queries) /
                      static_cast<double>(counters.batches)
                : 0,
            "queries");
    r.Layer("server.overloaded_share",
            static_cast<double>(counters.overloaded) /
                (acc + static_cast<double>(counters.overloaded)),
            "fraction");
    r.Layer("serve.read_p50_ms", open.reads.Median(), "ms");
    r.Layer("serve.write_p50_ms", open.writes.Median(), "ms");
    r.Layer("generator.lag_p99_ms", open.lag.P(0.99), "ms");
    RunCrackArrayProbe(data, boxes[0], a.seed, tr, &r);
    for (const char* m : {"object_store.insert_us", "object_store.erase_us",
                          "persist.wal_*"}) {
      r.LayerNotLoaded(m, "runs inside the server, no benchmark-side span");
    }
  }
  std::remove(snap_path.c_str());
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_MIXED_H_

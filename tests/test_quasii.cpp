// QUASII index tests: structural invariants of the slice hierarchy,
// correctness against Scan, and the paper's headline behaviour — less work
// than Scan and per-query cost that converges as the index refines itself
// (Section 6.2).

#include <algorithm>
#include <bitset>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::CountSink;
using quasii::CrackArray;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;
using quasii::Timer;

/// Walks one level's slice list and recurses into children, verifying:
/// sibling ranges tile the parent range in order, value intervals are
/// ordered and contain their entries' keys, and any slice that has been
/// descended into (has children) obeys its level threshold unless frozen.
template <int D>
void CheckSliceList(const QuasiiIndex<D>& index,
                    const std::vector<typename QuasiiIndex<D>::Slice>& slices,
                    int level, std::size_t begin, std::size_t end) {
  std::size_t pos = begin;
  Scalar prev_hi = -std::numeric_limits<Scalar>::infinity();
  for (const auto& s : slices) {
    CHECK_EQ(s.level, level);
    CHECK_EQ(s.begin, pos);
    pos = s.end;
    CHECK_LT(s.lo, s.hi);
    CHECK_GE(s.lo, prev_hi);
    prev_hi = s.hi;
    for (std::size_t k = s.begin; k < s.end; ++k) {
      const Scalar key = index.array().key(level, k);
      CHECK_GE(key, s.lo);
      CHECK_LT(key, s.hi);
    }
    if (!s.children.empty()) {
      CHECK_LT(level, D - 1);
      CHECK(s.frozen || s.size() <= index.LevelThreshold(level));
      CheckSliceList(index, s.children, level + 1, s.begin, s.end);
    }
  }
  CHECK_EQ(pos, end);
}

template <int D>
void CheckInvariants(const QuasiiIndex<D>& index, std::size_t n) {
  const CrackArray<D>& array = index.array();
  CHECK_EQ(array.size(), n);
  CheckSliceList(index, index.root_slices(), 0, 0, n);
  // Cracking permutes rows but never loses or duplicates them, and the key
  // columns stay consistent with the co-moved boxes.
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const ObjectId id = array.id(i);
    CHECK_LT(id, n);
    CHECK(!seen[id]);
    seen[id] = true;
    for (int d = 0; d < D; ++d) {
      CHECK_EQ(array.key(d, i), CrackArray<D>::CenterKey(array.box(i), d));
    }
  }
}

void TestThresholdProgression() {
  quasii::datagen::UniformDatasetParams p;
  p.count = 100000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(p);
  QuasiiIndex<3> index(data);
  Box3 q;
  for (int d = 0; d < 3; ++d) {
    q.lo[d] = 100;
    q.hi[d] = 200;
  }
  std::vector<ObjectId> result;
  RangeQueryInto(index, q, &result);
  // Geometric progression: leaf threshold tau, each level above rho times
  // larger, D refinements from n down to tau.
  CHECK_EQ(index.LevelThreshold(2), 1024u);
  CHECK_GT(index.LevelThreshold(1), index.LevelThreshold(2));
  CHECK_GT(index.LevelThreshold(0), index.LevelThreshold(1));
  CHECK_LT(index.LevelThreshold(0), p.count);
}

void TestInvariantsAfterQueries() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 30000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 256;
  QuasiiIndex<3> index(data, params);
  ScanIndex<3> scan(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 50;
  qp.selectivity = 1e-3;
  qp.seed = 77;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  std::vector<ObjectId> got, want;
  for (const Box3& q : queries) {
    got.clear();
    want.clear();
    RangeQueryInto(index, q, &got);
    RangeQueryInto(scan, q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
    CheckInvariants(index, data.size());
  }
}

void TestScanStatsBaseline() {
  // ScanIndex's objects_tested is exactly n per query — the closed form the
  // workload test below compares against.
  Rng rng(3);
  Box3 universe;
  for (int d = 0; d < 3; ++d) {
    universe.lo[d] = 0;
    universe.hi[d] = 100;
  }
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(1234, universe, 3.0f, &rng);
  ScanIndex<3> scan(data);
  std::vector<ObjectId> result;
  Box3 q;
  for (int d = 0; d < 3; ++d) {
    q.lo[d] = 1;
    q.hi[d] = 2;
  }
  for (int i = 0; i < 7; ++i) RangeQueryInto(scan, q, &result);
  CHECK_EQ(scan.stats().objects_tested, 1234u * 7u);
}

/// The acceptance workload: 1000 uniform queries over the uniform dataset.
/// QUASII must (a) test far fewer objects than Scan would, and (b) converge:
/// the first (index-building) query is much more expensive than the steady
/// state, in both reorganization work and wall-clock latency.
void TestWorkloadBeatsScanAndConverges() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 100000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3> index(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 1000;
  qp.selectivity = 1e-3;
  qp.seed = 4;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);

  std::vector<double> latency_s;
  std::vector<std::uint64_t> cracks_per_query;
  std::vector<ObjectId> result;
  std::uint64_t results_total = 0;
  for (const Box3& q : queries) {
    result.clear();
    const std::uint64_t cracks_before = index.stats().cracks;
    Timer t;
    RangeQueryInto(index, q, &result);
    latency_s.push_back(t.Seconds());
    cracks_per_query.push_back(index.stats().cracks - cracks_before);
    results_total += result.size();
  }
  CHECK_GT(results_total, 0u);

  // (a) Strictly less intersection work than Scan's n-per-query.
  const std::uint64_t scan_tested =
      static_cast<std::uint64_t>(data.size()) * queries.size();
  CHECK_LT(index.stats().objects_tested, scan_tested);

  // (b) Convergence. Reorganization: the last 100 queries together crack
  // less than the very first query alone.
  const std::uint64_t first_cracks = cracks_per_query.front();
  const std::uint64_t tail_cracks =
      std::accumulate(cracks_per_query.end() - 100, cracks_per_query.end(),
                      std::uint64_t{0});
  CHECK_GT(first_cracks, 0u);
  CHECK_LT(tail_cracks, first_cracks);

  // Latency: the first query (copies + cracks the whole array) must be well
  // above the steady-state mean of the last 100 queries.
  const double tail_mean =
      std::accumulate(latency_s.end() - 100, latency_s.end(), 0.0) / 100.0;
  CHECK_GT(latency_s.front(), 3.0 * tail_mean);

  CheckInvariants(index, data.size());
}

void TestStatsAccounting() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  const Box3 universe = quasii::datagen::UniformUniverse(dp);
  QuasiiIndex<3> index(data);

  quasii::datagen::UniformQueryParams qp;
  qp.count = 20;
  qp.seed = 8;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);
  std::vector<ObjectId> result;
  for (const Box3& q : queries) RangeQueryInto(index, q, &result);

  // A refining workload must register all four counter families.
  CHECK_GT(index.stats().cracks, 0u);
  CHECK_GT(index.stats().objects_moved, 0u);
  CHECK_GT(index.stats().partitions_visited, 0u);
  CHECK_GT(index.stats().objects_tested, 0u);

  // Repeating one query on the now-refined region adds no cracks.
  const std::uint64_t cracks = index.stats().cracks;
  result.clear();
  RangeQueryInto(index, queries.front(), &result);
  CHECK_EQ(index.stats().cracks, cracks);
}

/// Sums the raw-column formula of `CrackArray::StreamScan` over the leaves a
/// non-cracking range query on `q` visits: per leaf of `len` rows, `2 * len *
/// sizeof(Scalar)` per dimension the slice tree does not prove covered, plus
/// `len * sizeof(ObjectId)` for the emitted-id run (not on count-only
/// queries), plus `len` live bytes once the array holds tombstones. The
/// descent mirrors `QuasiiIndex::Visit`: a slice is visited when its value
/// interval meets the query extended by `half_extent`, and covers its
/// dimension when that interval lies inside the query's own.
std::uint64_t ExpectedBytes(const QuasiiIndex<3>& index,
                            const std::vector<QuasiiIndex<3>::Slice>& slices,
                            const Box3& q, const Box3& ext, unsigned covered,
                            bool count_only) {
  std::uint64_t bytes = 0;
  for (const auto& s : slices) {
    const int d = s.level;
    if (s.size() == 0 || s.lo >= ext.hi[d] || s.hi <= ext.lo[d]) continue;
    unsigned c = covered;
    if (q.lo[d] <= s.lo && s.hi <= q.hi[d]) c |= 1u << d;
    if (d < 2) {
      bytes += ExpectedBytes(index, s.children, q, ext, c, count_only);
      continue;
    }
    const std::uint64_t len = s.size();
    const std::uint64_t tested = 3 - std::bitset<3>(c).count();
    bytes += tested * 2 * len * sizeof(Scalar);
    if (!count_only) bytes += len * sizeof(ObjectId);
    if (index.array().tombstones() > 0) bytes += len;
  }
  return bytes;
}

void TestBytesScannedIsRawColumnBytes() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  dp.seed = 11;
  const Dataset3 data = quasii::datagen::MakeUniformDataset(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 200;
  qp.selectivity = 1e-3;
  qp.seed = 12;
  const auto queries = quasii::datagen::MakeUniformQueries(
      quasii::datagen::UniformUniverse(dp), qp);
  quasii::Point3 half_extent{};  // the index's query-extension amounts
  for (const Box3& b : data) {
    for (int d = 0; d < 3; ++d) {
      half_extent[d] = std::max(half_extent[d], b.Extent(d) / 2);
    }
  }

  QuasiiIndex<3> index(data);
  std::vector<ObjectId> ids;
  for (const Box3& q : queries) RangeQueryInto(index, q, &ids);

  // Checks the first `count` queries on the converged index, with ids
  // emitted and count-only.
  const auto check_queries = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const Box3& q = queries[i];
      Box3 ext;
      for (int d = 0; d < 3; ++d) {
        ext.lo[d] = q.lo[d] - half_extent[d];
        ext.hi[d] = std::nextafter(q.hi[d] + half_extent[d],
                                   std::numeric_limits<Scalar>::infinity());
      }
      ids.clear();
      RangeQueryInto(index, q, &ids);  // settles any refinement first
      for (const bool count_only : {false, true}) {
        index.ResetStats();
        ids.clear();
        if (count_only) {
          CountSink sink;
          index.Execute(quasii::CountQuery<3>(q), sink);
        } else {
          RangeQueryInto(index, q, &ids);
        }
        CHECK_EQ(index.stats().cracks, 0u);
        const std::uint64_t want =
            ExpectedBytes(index, index.root_slices(), q, ext, 0u, count_only);
        CHECK_GT(want, 0u);
        CHECK_EQ(index.stats().bytes_scanned, want);
      }
    }
  };
  check_queries(50);

  // Tombstones add the live-byte probe to every scanned leaf. Few enough
  // erases that no compaction is due.
  for (ObjectId id = 0; id < 20; ++id) CHECK(index.Erase(id * 7));
  CHECK_GT(index.array().tombstones(), 0u);
  check_queries(50);
}

}  // namespace

int main() {
  RUN_TEST(TestThresholdProgression);
  RUN_TEST(TestInvariantsAfterQueries);
  RUN_TEST(TestScanStatsBaseline);
  RUN_TEST(TestWorkloadBeatsScanAndConverges);
  RUN_TEST(TestStatsAccounting);
  RUN_TEST(TestBytesScannedIsRawColumnBytes);
  return 0;
}

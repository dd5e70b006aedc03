// CrackArray tests: the structure-of-arrays cracking core must keep its id,
// key, and box columns consistent under arbitrary crack / median-split
// sequences, handle duplicate-key-heavy data via the frozen path, and carry
// the SoA QuasiiIndex to Scan-identical results on every dataset family.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "datagen/neuro.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "scan/scan_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box3;
using quasii::CrackArray;
using quasii::CrackPartition;
using quasii::Dataset3;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::Rng;
using quasii::Scalar;
using quasii::ScanIndex;

Box3 TestUniverse() {
  Box3 u;
  for (int d = 0; d < 3; ++d) {
    u.lo[d] = 0;
    u.hi[d] = 1000;
  }
  return u;
}

/// Every column must describe the same permutation of the original dataset:
/// ids are a permutation, and row i's keys/box are exactly the source
/// object's centre keys/box.
void CheckColumnsConsistent(const CrackArray<3>& a, const Dataset3& data) {
  CHECK_EQ(a.size(), data.size());
  std::vector<bool> seen(data.size(), false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const ObjectId id = a.id(i);
    CHECK_LT(id, data.size());
    CHECK(!seen[id]);
    seen[id] = true;
    CHECK(a.box(i) == data[id]);
    for (int d = 0; d < 3; ++d) {
      CHECK_EQ(a.key(d, i), CrackArray<3>::CenterKey(data[id], d));
    }
  }
}

void TestPermutationIntegrityUnderRandomOps() {
  Rng rng(71);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(8000, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CheckColumnsConsistent(a, data);

  // Arbitrary interleaved crack / median-split sequence over random ranges.
  for (int step = 0; step < 200; ++step) {
    const std::size_t x =
        static_cast<std::size_t>(rng.UniformInt(0, 7999));
    const std::size_t y =
        static_cast<std::size_t>(rng.UniformInt(0, 7999));
    const std::size_t begin = std::min(x, y);
    const std::size_t end = std::max(x, y) + 1;
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    if (step % 2 == 0) {
      const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
      const std::size_t pos = a.CrackOnAxis(begin, end, d, v);
      CHECK_GE(pos, begin);
      CHECK_LE(pos, end);
      for (std::size_t i = begin; i < pos; ++i) CHECK_LT(a.key(d, i), v);
      for (std::size_t i = pos; i < end; ++i) CHECK_GE(a.key(d, i), v);
    } else {
      const auto split = a.MedianSplit(begin, end, d);
      CHECK_GE(split.pos, begin);
      CHECK_LE(split.pos, end);
      CHECK(!split.frozen || split.pos == end);
      for (std::size_t i = begin; i < split.pos; ++i) {
        CHECK_LT(a.key(d, i), split.bound);
      }
      for (std::size_t i = split.pos; i < end; ++i) {
        CHECK_GE(a.key(d, i), split.bound);
      }
      if (!split.frozen) {
        // A successful split must make progress on both sides.
        CHECK_GT(split.pos, begin);
        CHECK_LT(split.pos, end);
      }
    }
    CheckColumnsConsistent(a, data);
  }
}

void TestMedianSplitBalanceAndBounds() {
  Rng rng(5);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(4096, universe, 2.0f, &rng);
  CrackArray<3> a(data);
  const auto split = a.MedianSplit(0, a.size(), 1);
  CHECK(!split.frozen);
  // With (near-)distinct keys the split lands near the middle.
  CHECK_GT(split.pos, a.size() / 4);
  CHECK_LT(split.pos, 3 * a.size() / 4);
  CheckColumnsConsistent(a, data);
}

void TestDuplicateHeavyFrozenPath() {
  // 90% of the dataset is one identical box: median splits along any axis
  // keep running into the duplicate run at scale.
  Rng rng(23);
  const Box3 universe = TestUniverse();
  Dataset3 data;
  Box3 dup;
  for (int d = 0; d < 3; ++d) {
    dup.lo[d] = 500;
    dup.hi[d] = 502;
  }
  for (int i = 0; i < 18000; ++i) data.push_back(dup);
  const Dataset3 extra =
      quasii::datagen::MakeRandomBoxes<3>(2000, universe, 4.0f, &rng);
  data.insert(data.end(), extra.begin(), extra.end());

  CrackArray<3> a(data);
  // Repeated median splits must terminate at the frozen duplicate run, with
  // columns intact throughout.
  std::size_t begin = 0;
  std::size_t end = a.size();
  bool froze = false;
  for (int i = 0; i < 64 && !froze; ++i) {
    const auto split = a.MedianSplit(begin, end, 0);
    if (split.frozen) {
      froze = true;
      break;
    }
    // Keep descending into the half that contains the duplicate run.
    const Scalar dup_key = CrackArray<3>::CenterKey(dup, 0);
    if (dup_key < split.bound) {
      end = split.pos;
    } else {
      begin = split.pos;
    }
    CHECK_LT(begin, end);
  }
  CHECK(froze);
  CheckColumnsConsistent(a, data);

  // The full QUASII stack over the same data: duplicate-heavy slices freeze
  // instead of splitting forever, and results still match Scan.
  QuasiiIndex<3>::Params params;
  params.leaf_threshold = 128;
  QuasiiIndex<3> index(data, params);
  ScanIndex<3> scan(data);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 40;
  qp.selectivity = 1e-2;
  qp.seed = 6;
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
  }
}

void TestCrackPartitionPrimitive() {
  // The shared primitive on a plain int column with a companion payload.
  std::vector<int> keys = {5, 1, 9, 3, 7, 3, 0, 8, 2, 6};
  std::vector<int> payload = keys;  // co-moves; must stay equal to keys
  const std::size_t pos = quasii::CrackPartition(
      keys.data(), 0, keys.size(), [](int k) { return k < 5; },
      [&](std::size_t i, std::size_t j) {
        std::swap(keys[i], keys[j]);
        std::swap(payload[i], payload[j]);
      });
  CHECK_EQ(pos, 5u);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    CHECK_EQ(keys[i], payload[i]);
    if (i < pos) {
      CHECK_LT(keys[i], 5);
    } else {
      CHECK_GE(keys[i], 5);
    }
  }

  // Degenerate ranges: empty, all-pass, all-fail.
  std::vector<int> one = {4};
  auto noswap = [](std::size_t, std::size_t) { CHECK(false); };
  CHECK_EQ(quasii::CrackPartition(one.data(), 0, 0,
                                  [](int) { return true; }, noswap),
           0u);
  CHECK_EQ(quasii::CrackPartition(one.data(), 0, 1,
                                  [](int k) { return k < 10; }, noswap),
           1u);
  CHECK_EQ(quasii::CrackPartition(one.data(), 0, 1,
                                  [](int k) { return k < 0; }, noswap),
           0u);
}

/// The SoA QuasiiIndex must agree with Scan on every dataset family the
/// equivalence suite exercises: uniform, neuro, 2d random boxes, and the
/// duplicate-heavy degenerate case (covered above).
template <int D>
void CheckQuasiiAgainstScan(const quasii::Dataset<D>& data,
                            const quasii::Box<D>& universe,
                            std::uint64_t seed) {
  typename QuasiiIndex<D>::Params params;
  params.leaf_threshold = 256;
  QuasiiIndex<D> index(data, params);
  ScanIndex<D> scan(data);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 40;
  qp.selectivity = 1e-3;
  qp.seed = seed;
  const auto queries = quasii::datagen::MakeUniformQueries(universe, qp);
  std::vector<ObjectId> got, want;
  for (const auto& q : queries) {
    got.clear();
    want.clear();
    RangeQueryInto(index, q, &got);
    RangeQueryInto(scan, q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    CHECK(got == want);
  }
}

void TestSoaQuasiiEquivalence() {
  {
    quasii::datagen::UniformDatasetParams p;
    p.count = 15000;
    CheckQuasiiAgainstScan<3>(quasii::datagen::MakeUniformDataset(p),
                              quasii::datagen::UniformUniverse(p), 11);
  }
  {
    quasii::datagen::NeuroDatasetParams p;
    p.count = 15000;
    CheckQuasiiAgainstScan<3>(quasii::datagen::MakeNeuroDataset(p),
                              quasii::datagen::NeuroUniverse(p), 12);
  }
  {
    Rng rng(13);
    quasii::Box2 universe;
    for (int d = 0; d < 2; ++d) {
      universe.lo[d] = -250;
      universe.hi[d] = 250;
    }
    CheckQuasiiAgainstScan<2>(
        quasii::datagen::MakeRandomBoxes<2>(12000, universe, 6.0f, &rng),
        universe, 14);
  }
}

/// Append / EraseId / pending-tail bookkeeping, and the id → row map's
/// integrity under cracks that shuffle live and dead rows together.
void TestAppendEraseAndPendingTail() {
  Rng rng(31);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(2000, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  CHECK_EQ(a.pending_count(), 0u);
  CHECK_EQ(a.tombstones(), 0u);

  // Appends land behind the pending marker; sealing absorbs them.
  Dataset3 extra =
      quasii::datagen::MakeRandomBoxes<3>(500, universe, 9.0f, &rng);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    a.Append(static_cast<ObjectId>(5000 + i), extra[i]);
  }
  CHECK_EQ(a.pending_count(), 500u);
  CHECK_EQ(a.size(), 2500u);
  CHECK(a.box(2000) == extra[0]);
  a.SealPending();
  CHECK_EQ(a.pending_count(), 0u);

  // Erases tombstone in place, O(1) by id, and reject dead/unknown ids.
  CHECK(a.EraseId(7));
  CHECK(!a.EraseId(7));
  CHECK(a.EraseId(5003));
  CHECK(!a.EraseId(99999));
  CHECK_EQ(a.tombstones(), 2u);
  CHECK_EQ(a.size(), 2500u);  // rows keep their positions

  // Cracks co-permute the live column and keep the id map accurate: every
  // live id must still be erasable afterwards, dead ones must stay dead.
  for (int step = 0; step < 50; ++step) {
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
    a.CrackOnAxis(0, a.size(), d, v);
  }
  CHECK(!a.EraseId(7));
  CHECK(a.EraseId(8));
  CHECK(a.EraseId(5004));
  CHECK_EQ(a.tombstones(), 4u);

  // Re-append an erased id: a fresh live row; the corpse stays dead even
  // when later cracks move it around.
  a.Append(7, extra[1]);
  for (int step = 0; step < 20; ++step) {
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
    a.CrackOnAxis(0, a.pending_begin(), d, v);
  }
  CHECK(a.EraseId(7));  // erases the fresh row, not the corpse
  CHECK(!a.EraseId(7));
}

/// Uniform index in `[0, n)`.
std::size_t RandomIndex(Rng* rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng->UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/// The lazily maintained id → row map under a seeded random interleaving of
/// every reorganizing call with appends and erases. Erases hit live ids,
/// dead ids, unknown ids and a re-appended id whose dead corpse keeps being
/// moved. Every erase's verdict is checked against a reference id → (box,
/// live) table, `CheckColumns` runs after every step, and the rows are
/// compared with the table every 16 steps (a full comparison per step
/// would dominate sanitizer runs). With `threads > 1` the whole-array
/// partitions (n ≥ 2^17 rows) run `ChunkedCrackPartition` on the
/// intra-query workers.
void CheckLazyRowMapUnderInterleaving(int threads) {
  const int previous = quasii::IntraQueryThreads();
  quasii::SetIntraQueryThreads(threads);
  Rng rng(83);
  const Box3 universe = TestUniverse();
  const std::size_t n = std::size_t{1} << 17;
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(n, universe, 9.0f, &rng);
  CrackArray<3> a(data);
  std::vector<Box3> ref_box(data.begin(), data.end());
  std::vector<bool> ref_live(n, true);
  std::vector<ObjectId> dead;
  std::size_t live_count = n;

  const auto append = [&](ObjectId id) {
    const Box3 b =
        quasii::datagen::MakeRandomBoxes<3>(1, universe, 9.0f, &rng)[0];
    a.Append(id, b);
    if (id >= ref_box.size()) {
      ref_box.resize(id + 1);
      ref_live.resize(id + 1, false);
    }
    ref_box[id] = b;
    ref_live[id] = true;
    ++live_count;
  };
  const auto erase = [&](ObjectId id) {
    const bool expect = id < ref_live.size() && ref_live[id];
    CHECK_EQ(a.EraseId(id), expect);
    if (!expect) return;
    ref_live[id] = false;
    dead.push_back(id);
    --live_count;
  };
  // A quarter of the ranges are the whole array (the chunked path), a
  // quarter random, and half short, so that several disjoint stale ranges
  // build up between erases and merge as they grow.
  const auto pick_range = [&](std::size_t* begin, std::size_t* end) {
    *begin = 0;
    *end = a.size();
    const std::int64_t kind = rng.UniformInt(0, 3);
    if (kind == 0) return;
    const std::size_t x = RandomIndex(&rng, a.size() + 1);
    const std::size_t y =
        kind == 1 ? RandomIndex(&rng, a.size() + 1)
                  : std::min(a.size(), x + RandomIndex(&rng, 8192));
    *begin = std::min(x, y);
    *end = std::max(x, y);
  };
  const auto check_columns = [&] {
    std::string why;
    if (!a.CheckColumns(&why)) {
      std::fprintf(stderr, "CheckColumns: %s\n", why.c_str());
      CHECK(false);
    }
  };
  const auto check_reference = [&] {
    std::size_t live_rows = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a.live(i)) continue;
      ++live_rows;
      const ObjectId id = a.id(i);
      CHECK(id < ref_live.size() && ref_live[id]);
      CHECK(a.box(i) == ref_box[id]);
      for (int d = 0; d < 3; ++d) {
        CHECK_EQ(a.key(d, i), CrackArray<3>::CenterKey(ref_box[id], d));
      }
    }
    CHECK_EQ(live_rows, live_count);
    CHECK_EQ(a.tombstones(), a.size() - live_count);
  };

  // Re-append an erased id up front, so its corpse rides through every
  // step until its fresh row is erased halfway.
  erase(5);
  dead.pop_back();
  append(5);
  a.SealPending();
  check_columns();
  check_reference();

  for (int step = 0; step < 240; ++step) {
    std::size_t begin = 0;
    std::size_t end = 0;
    const int d = static_cast<int>(rng.UniformInt(0, 2));
    const std::int64_t op = rng.UniformInt(0, 99);
    if (op < 30) {
      pick_range(&begin, &end);
      const Scalar v = rng.UniformScalar(universe.lo[d], universe.hi[d]);
      const std::size_t pos = a.CrackOnAxis(begin, end, d, v);
      CHECK(pos >= begin && pos <= end);
    } else if (op < 45) {
      pick_range(&begin, &end);
      const auto split = a.MedianSplit(begin, end, d);
      CHECK(split.pos >= begin && split.pos <= end);
    } else if (op < 55) {
      pick_range(&begin, &end);
      const std::size_t live_end = a.PartitionLiveFirst(begin, end);
      for (std::size_t i = begin; i < end; ++i) {
        CHECK_EQ(a.live(i), i < live_end);
      }
    } else if (op < 70) {
      // Fresh ids, and now and then a dead id re-appended.
      const int count = static_cast<int>(rng.UniformInt(1, 64));
      for (int k = 0; k < count; ++k) {
        if (dead.empty() || rng.UniformInt(0, 3) != 0) {
          append(static_cast<ObjectId>(ref_live.size()));
          continue;
        }
        const std::size_t pick = RandomIndex(&rng, dead.size());
        const ObjectId id = dead[pick];
        dead[pick] = dead.back();
        dead.pop_back();
        append(id);
      }
      a.SealPending();
    } else {
      const int count = static_cast<int>(rng.UniformInt(1, 8));
      for (int k = 0; k < count; ++k) {
        const std::int64_t kind = rng.UniformInt(0, 9);
        if (kind < 6) {  // a live id
          std::size_t id = RandomIndex(&rng, ref_live.size());
          while (!ref_live[id]) id = RandomIndex(&rng, ref_live.size());
          erase(static_cast<ObjectId>(id));
        } else if (kind < 9 && !dead.empty()) {  // a dead id
          erase(dead[RandomIndex(&rng, dead.size())]);
        } else {  // an id never appended
          const std::size_t unknown = ref_live.size() + RandomIndex(&rng, 1000);
          erase(static_cast<ObjectId>(unknown));
        }
      }
    }
    if (step == 120) erase(5);  // the fresh row, not the moved corpse
    check_columns();
    if (step % 16 == 15) check_reference();
  }
  quasii::SetIntraQueryThreads(previous);
}

void TestLazyRowMapUnderInterleavingSerial() {
  CheckLazyRowMapUnderInterleaving(1);
}

void TestLazyRowMapUnderInterleavingParallel() {
  CheckLazyRowMapUnderInterleaving(4);
}

/// StreamScan must skip tombstones on every path: masked scans, covered
/// dimensions, and count-only execution.
void TestStreamScanSkipsTombstones() {
  Rng rng(37);
  const Box3 universe = TestUniverse();
  const Dataset3 data =
      quasii::datagen::MakeRandomBoxes<3>(4000, universe, 9.0f, &rng);
  CrackArray<3> a(data);

  const Box3 q = universe;  // full coverage: every live row matches
  const auto scan_ids = [&](unsigned covered) {
    std::vector<ObjectId> ids;
    quasii::VectorSink sink(&ids);
    quasii::MatchEmitter emit(false, &sink);
    a.StreamScan(0, a.size(), q, quasii::RangePredicate::kIntersects,
                 covered, &emit);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto scan_count = [&](unsigned covered) {
    quasii::CountSink sink;
    quasii::MatchEmitter emit(true, &sink);
    a.StreamScan(0, a.size(), q, quasii::RangePredicate::kIntersects,
                 covered, &emit);
    emit.Flush();
    return sink.count();
  };

  CHECK_EQ(scan_ids(0).size(), 4000u);
  CHECK_EQ(scan_count(7u), 4000u);

  for (ObjectId id = 100; id < 150; ++id) CHECK(a.EraseId(id));
  const std::vector<ObjectId> ids = scan_ids(0);
  CHECK_EQ(ids.size(), 3950u);
  for (const ObjectId id : ids) {
    CHECK(id < 100 || id >= 150);
  }
  // The fully-covered bulk path must also honor tombstones...
  CHECK_EQ(scan_ids(7u).size(), 3950u);
  // ...as must count-only execution, which never reads the id column.
  CHECK_EQ(scan_count(7u), 3950u);

  // PartitionLiveFirst sweeps the dead rows to the back of the range, and
  // scanning just the live prefix afterwards yields the same result set.
  const std::size_t live_end = a.PartitionLiveFirst(0, a.size());
  CHECK_EQ(live_end, 3950u);
  for (std::size_t i = 0; i < live_end; ++i) CHECK(a.live(i));
  for (std::size_t i = live_end; i < a.size(); ++i) CHECK(!a.live(i));
  std::vector<ObjectId> prefix_ids;
  quasii::VectorSink prefix_sink(&prefix_ids);
  quasii::MatchEmitter emit(false, &prefix_sink);
  a.StreamScan(0, live_end, q, quasii::RangePredicate::kIntersects, 0, &emit);
  std::sort(prefix_ids.begin(), prefix_ids.end());
  CHECK(prefix_ids == ids);
}

}  // namespace

int main() {
  RUN_TEST(TestCrackPartitionPrimitive);
  RUN_TEST(TestPermutationIntegrityUnderRandomOps);
  RUN_TEST(TestMedianSplitBalanceAndBounds);
  RUN_TEST(TestDuplicateHeavyFrozenPath);
  RUN_TEST(TestSoaQuasiiEquivalence);
  RUN_TEST(TestAppendEraseAndPendingTail);
  RUN_TEST(TestStreamScanSkipsTombstones);
  RUN_TEST(TestLazyRowMapUnderInterleavingSerial);
  RUN_TEST(TestLazyRowMapUnderInterleavingParallel);
  return 0;
}

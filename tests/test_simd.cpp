// SIMD kernel tests: every vector tier must match the scalar reference
// bit-for-bit at boundary lengths (0, 1, lane-width +/- 1), leaf scans must
// emit identical results at every tier across all predicates (2D and 3D,
// duplicate-heavy and all-dead rows included), a converged QUASII index must
// answer identically at every tier and after a snapshot restore, and the
// thread-local scan scratch must shrink back after a burst of large scans.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/crack_array.h"
#include "common/dataset.h"
#include "common/query.h"
#include "common/rng.h"
#include "common/simd.h"
#include "datagen/queries.h"
#include "datagen/synthetic.h"
#include "geometry/box.h"
#include "quasii/quasii_index.h"
#include "tests/test_util.h"

namespace {

using quasii::Box;
using quasii::Box3;
using quasii::CrackArray;
using quasii::Dataset;
using quasii::MatchEmitter;
using quasii::ObjectId;
using quasii::QuasiiIndex;
using quasii::RangePredicate;
using quasii::Rng;
using quasii::Scalar;
using quasii::VectorSink;

namespace simd = quasii::simd;

constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();

// Lengths straddling every lane boundary of the 8-wide kernels (and the
// 16-wide mask passes inside CompactIds).
const std::vector<std::size_t> kLens = {0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100};

/// Random column with duplicates, signed zeros and infinities sprinkled in.
std::vector<Scalar> RandomColumn(std::size_t n, Rng* rng) {
  std::vector<Scalar> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng->UniformInt(0, 9)) {
      case 0:
        v[i] = Scalar{0};
        break;
      case 1:
        v[i] = Scalar{-0.0};
        break;
      case 2:
        v[i] = i > 0 ? v[rng->UniformInt(0, static_cast<std::int64_t>(i) - 1)]
                     : Scalar{1};
        break;
      case 3:
        v[i] = rng->UniformInt(0, 1) ? kInf : -kInf;
        break;
      default:
        v[i] = rng->UniformScalar(-100, 100);
    }
  }
  return v;
}

std::vector<std::uint8_t> RandomMask(std::size_t n, Rng* rng) {
  std::vector<std::uint8_t> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = static_cast<std::uint8_t>(rng->UniformInt(0, 1));
  }
  return m;
}

/// Runs `fn` once under the machine's native tier and once forced scalar.
template <typename Fn>
void ForEachTier(Fn fn) {
  const simd::Tier native = simd::DetectTier();
  simd::ForceTier(native);
  fn();
  simd::ForceTier(simd::Tier::kScalar);
  fn();
  simd::ForceTier(native);
}

void TestTierControls() {
  const simd::Tier native = simd::DetectTier();
  CHECK_EQ(simd::DetectTier(), native);  // stable across calls
  CHECK_EQ(simd::ForceTier(simd::Tier::kScalar), simd::Tier::kScalar);
  CHECK_EQ(simd::ActiveTier(), simd::Tier::kScalar);
  // Forcing an unsupported vector tier clamps to what the machine has.
  const simd::Tier other = native == simd::Tier::kAvx2 ? simd::Tier::kNeon
                                                       : simd::Tier::kAvx2;
  CHECK_EQ(simd::ForceTier(other), native);
  CHECK_EQ(simd::ForceTier(native), native);
  CHECK_EQ(simd::ActiveTier(), native);
}

void TestMaskLeGeMatchesScalar() {
  Rng rng(11);
  for (std::size_t n : kLens) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<Scalar> le_col = RandomColumn(n, &rng);
      const std::vector<Scalar> ge_col = RandomColumn(n, &rng);
      const Scalar le_b = rng.UniformScalar(-120, 120);
      const Scalar ge_b = rng.UniformScalar(-120, 120);
      const std::vector<std::uint8_t> init = RandomMask(n, &rng);
      std::vector<std::uint8_t> want = init;
      simd::MaskLeGeScalar(le_col.data(), le_b, ge_col.data(), ge_b,
                           want.data(), n);
      ForEachTier([&] {
        std::vector<std::uint8_t> got = init;
        simd::MaskLeGe(le_col.data(), le_b, ge_col.data(), ge_b, got.data(),
                       n);
        CHECK(got == want);
      });
    }
  }
}

void TestMaskCountAndCompactMatchScalar() {
  Rng rng(12);
  for (std::size_t n : kLens) {
    for (int rep = 0; rep < 8; ++rep) {
      const std::vector<std::uint8_t> mask = RandomMask(n, &rng);
      std::vector<ObjectId> ids(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<ObjectId>(rng.UniformInt(0, 1 << 20));
      }
      const std::uint64_t want_count = simd::MaskCountScalar(mask.data(), n);
      std::vector<ObjectId> want_ids(n + 1, 0xdeadbeef);
      const std::size_t want_m =
          simd::CompactIdsScalar(ids.data(), mask.data(), n, want_ids.data());
      CHECK_EQ(want_count, want_m);
      ForEachTier([&] {
        CHECK_EQ(simd::MaskCount(mask.data(), n), want_count);
        std::vector<ObjectId> got_ids(n + 1, 0xdeadbeef);
        const std::size_t got_m =
            simd::CompactIds(ids.data(), mask.data(), n, got_ids.data());
        CHECK_EQ(got_m, want_m);
        CHECK(std::equal(got_ids.begin(), got_ids.begin() + got_m,
                         want_ids.begin()));
      });
      // All-set and all-clear masks.
      const std::vector<std::uint8_t> ones(n, 1);
      const std::vector<std::uint8_t> zeros(n, 0);
      ForEachTier([&] {
        CHECK_EQ(simd::MaskCount(ones.data(), n), n);
        CHECK_EQ(simd::MaskCount(zeros.data(), n), 0u);
        std::vector<ObjectId> out(n + 1);
        CHECK_EQ(simd::CompactIds(ids.data(), ones.data(), n, out.data()), n);
        CHECK(std::equal(out.begin(), out.begin() + n, ids.begin()));
        CHECK_EQ(simd::CompactIds(ids.data(), zeros.data(), n, out.data()),
                 0u);
      });
    }
  }
}

template <int D>
Dataset<D> MakeScanDataset(std::size_t n, Rng* rng, bool duplicate_heavy) {
  Dataset<D> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < D; ++d) {
      Scalar lo;
      if (duplicate_heavy && rng->UniformInt(0, 2) != 0) {
        lo = Scalar(10 * rng->UniformInt(0, 4));  // few distinct values
      } else {
        lo = rng->UniformScalar(0, 100);
      }
      data[i].lo[d] = lo;
      data[i].hi[d] = lo + rng->UniformScalar(0, 5);
    }
  }
  return data;
}

/// StreamScan over `[0, n)` at every tier, for every predicate: ids must be
/// identical to the forced-scalar scan (order included — every tier emits in
/// row order), and so must the byte count.
template <int D>
void CheckStreamScanTiers(const CrackArray<D>& array, const Box<D>& q) {
  const std::size_t n = array.size();
  for (const RangePredicate pred :
       {RangePredicate::kIntersects, RangePredicate::kContains,
        RangePredicate::kContainedBy}) {
    std::vector<ObjectId> want;
    std::uint64_t want_bytes = 0;
    {
      VectorSink sink(&want);
      MatchEmitter emit(false, &sink);
      simd::ForceTier(simd::Tier::kScalar);
      want_bytes = array.StreamScan(0, n, q, pred, 0, &emit);
      simd::ForceTier(simd::DetectTier());
    }
    ForEachTier([&] {
      std::vector<ObjectId> got;
      VectorSink sink(&got);
      MatchEmitter emit(false, &sink);
      CHECK_EQ(array.StreamScan(0, n, q, pred, 0, &emit), want_bytes);
      CHECK(got == want);
    });
  }
}

template <int D>
void RunStreamScanTest(bool duplicate_heavy, bool kill_all) {
  Rng rng(15 + D + (duplicate_heavy ? 1 : 0));
  for (std::size_t n : kLens) {
    if (n == 0) continue;
    const Dataset<D> data = MakeScanDataset<D>(n, &rng, duplicate_heavy);
    CrackArray<D> array(data);
    if (kill_all) {
      for (ObjectId id = 0; id < n; ++id) CHECK(array.EraseId(id));
    } else if (n >= 4) {
      // Tombstone a few rows so the live-mask seed path runs too.
      for (int k = 0; k < 3; ++k) {
        array.EraseId(static_cast<ObjectId>(
            rng.UniformInt(0, static_cast<std::int64_t>(n) - 1)));
      }
    }
    for (int rep = 0; rep < 4; ++rep) {
      Box<D> q;
      for (int d = 0; d < D; ++d) {
        const Scalar a = rng.UniformScalar(0, 100);
        const Scalar b = rng.UniformScalar(0, 100);
        q.lo[d] = std::min(a, b);
        q.hi[d] = std::max(a, b);
      }
      CheckStreamScanTiers<D>(array, q);
    }
    // A query covering everything and one hitting nothing.
    Box<D> all, none;
    for (int d = 0; d < D; ++d) {
      all.lo[d] = -kInf;
      all.hi[d] = kInf;
      none.lo[d] = Scalar{-500};
      none.hi[d] = Scalar{-400};
    }
    CheckStreamScanTiers<D>(array, all);
    CheckStreamScanTiers<D>(array, none);
  }
}

void TestStreamScanTiers2D() { RunStreamScanTest<2>(false, false); }
void TestStreamScanTiers3D() { RunStreamScanTest<3>(false, false); }
void TestStreamScanDuplicateHeavy() { RunStreamScanTest<3>(true, false); }
void TestStreamScanAllDead() { RunStreamScanTest<3>(false, true); }

void TestScanScratchShrinks() {
  using quasii::internal::ScanScratch;
  ScanScratch s;
  // Grow far past the cap, then report a burst of small scans: capacity
  // must fall back to roughly the working size after kShrinkStreak scans.
  s.mask.assign(4u << 20, 1);
  s.ids.assign(1u << 21, 0);
  CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);
  CHECK_GT(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(1024, 256);
    CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);  // not yet
  }
  // One big scan resets the streak...
  s.Release(s.mask.capacity(), s.ids.capacity());
  for (int i = 0; i < ScanScratch::kShrinkStreak - 1; ++i) {
    s.Release(1024, 256);
    CHECK_GT(s.mask.capacity(), ScanScratch::kCapBytes);
  }
  // ...and the streak's final small scan triggers the shrink.
  s.Release(1024, 256);
  CHECK_LE(s.mask.capacity(), ScanScratch::kCapBytes);
  CHECK_LE(s.ids.capacity() * sizeof(ObjectId), ScanScratch::kCapBytes);
  // Below-cap scratch is left alone no matter the streak.
  const std::size_t cap_before = s.mask.capacity();
  for (int i = 0; i < 2 * ScanScratch::kShrinkStreak; ++i) s.Release(1, 1);
  CHECK_EQ(s.mask.capacity(), cap_before);
}

/// Input of the two QUASII end-to-end tests below: a uniform dataset and
/// the range workload that converges an index over it.
struct QuasiiWorkload {
  quasii::Dataset3 data;
  std::vector<Box3> queries;
};

QuasiiWorkload MakeQuasiiWorkload() {
  quasii::datagen::UniformDatasetParams dp;
  dp.count = 20000;
  dp.seed = 7;
  QuasiiWorkload in;
  in.data = quasii::datagen::MakeUniformDataset(dp);
  quasii::datagen::UniformQueryParams qp;
  qp.count = 400;
  qp.selectivity = 1e-3;
  qp.seed = 8;
  in.queries = quasii::datagen::MakeUniformQueries(
      quasii::datagen::UniformUniverse(dp), qp);
  return in;
}

void Converge(QuasiiIndex<3>* index, const std::vector<Box3>& queries) {
  for (const Box3& q : queries) {
    std::vector<ObjectId> ids;
    RangeQueryInto(*index, q, &ids);
  }
}

void TestQuasiiTierAgreement() {
  const QuasiiWorkload in = MakeQuasiiWorkload();
  QuasiiIndex<3> index(in.data);
  Converge(&index, in.queries);
  // Every tier emits the forced-scalar id stream (order included) and does
  // the same work.
  for (std::size_t i = 0; i < 50; ++i) {
    std::vector<ObjectId> want;
    simd::ForceTier(simd::Tier::kScalar);
    index.ResetStats();
    RangeQueryInto(index, in.queries[i], &want);
    const quasii::QueryStats want_stats = index.stats();
    ForEachTier([&] {
      std::vector<ObjectId> got;
      index.ResetStats();
      RangeQueryInto(index, in.queries[i], &got);
      CHECK(got == want);
      CHECK_EQ(index.stats().cracks, 0u);
      CHECK_EQ(index.stats().objects_tested, want_stats.objects_tested);
      CHECK_EQ(index.stats().bytes_scanned, want_stats.bytes_scanned);
    });
  }
  std::string why;
  CHECK(index.CheckInvariants(&why));
}

void TestQuasiiRestoreReplaysWithoutCracks() {
  const QuasiiWorkload in = MakeQuasiiWorkload();
  QuasiiIndex<3> index(in.data);
  Converge(&index, in.queries);
  std::string blob;
  quasii::ByteWriter blob_writer(&blob);
  CHECK(index.SerializeStructure(blob_writer));
  QuasiiIndex<3> restored(in.data);
  CHECK(restored.DeserializeStructure(blob));
  std::string why;
  CHECK(restored.CheckInvariants(&why));
  restored.ResetStats();
  for (const Box3& q : in.queries) {
    std::vector<ObjectId> got, want;
    RangeQueryInto(restored, q, &got);
    RangeQueryInto(index, q, &want);
    CHECK(got == want);
  }
  CHECK_EQ(restored.stats().cracks, 0u);
}

}  // namespace

int main() {
  RUN_TEST(TestTierControls);
  RUN_TEST(TestMaskLeGeMatchesScalar);
  RUN_TEST(TestMaskCountAndCompactMatchScalar);
  RUN_TEST(TestStreamScanTiers2D);
  RUN_TEST(TestStreamScanTiers3D);
  RUN_TEST(TestStreamScanDuplicateHeavy);
  RUN_TEST(TestStreamScanAllDead);
  RUN_TEST(TestScanScratchShrinks);
  RUN_TEST(TestQuasiiTierAgreement);
  RUN_TEST(TestQuasiiRestoreReplaysWithoutCracks);
  std::printf("test_simd: all tests passed\n");
  return 0;
}

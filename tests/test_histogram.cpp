// Histogram plane (src/phch/obs/histogram.h): log-linear bucket math,
// snapshot merge/quantile behavior, the per-table live-list + graveyard
// ledger, and the compiled-out contract. The concurrent
// record-while-drain hammer runs under the TSan CI job.
//
// This file compiles and passes in both build modes: the bucket math is
// constexpr and mode-independent; the recording tests skip when the layer
// is compiled out, where they instead assert it really is compiled out.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "phch/core/deterministic_table.h"
#include "phch/core/table_common.h"
#include "phch/obs/histogram.h"
#include "phch/obs/telemetry.h"
#include "phch/obs/trace.h"
#include "phch/parallel/parallel_for.h"
#include "phch/parallel/scheduler.h"

namespace phch {
namespace {

using obs::hist_bucket;
using obs::hist_bucket_lower;
using obs::hist_bucket_upper;
using obs::kHistBuckets;

// ---------------------------------------------------------------------------
// Bucket math (both modes; everything here is constexpr-evaluable).

TEST(HistBuckets, SmallValuesAreExact) {
  // Values below the first log-linear octave land in their own bucket, so
  // small probe depths (the common case) lose no resolution at all.
  for (std::uint64_t v = 0; v < 8; ++v) {
    SCOPED_TRACE(v);
    EXPECT_EQ(hist_bucket_lower(hist_bucket(v)), v);
    EXPECT_EQ(hist_bucket_upper(hist_bucket(v)), v);
  }
}

TEST(HistBuckets, EveryValueFallsInItsBucketBounds) {
  // Exhaustive near the small end, then power-of-two neighborhoods.
  std::vector<std::uint64_t> probes;
  for (std::uint64_t v = 0; v < 4096; ++v) probes.push_back(v);
  for (int e = 12; e < 64; ++e) {
    const std::uint64_t p = 1ULL << e;
    probes.push_back(p - 1);
    probes.push_back(p);
    probes.push_back(p + 1);
    probes.push_back(p + (p >> 1));  // mid-octave
  }
  probes.push_back(std::numeric_limits<std::uint64_t>::max());
  std::size_t prev_bucket = 0;
  std::uint64_t prev_v = 0;
  for (const std::uint64_t v : probes) {
    SCOPED_TRACE(v);
    const std::size_t b = hist_bucket(v);
    ASSERT_LT(b, kHistBuckets);
    EXPECT_LE(hist_bucket_lower(b), v);
    EXPECT_GE(hist_bucket_upper(b), v);
    // Monotone: a larger value never lands in a smaller bucket.
    if (v >= prev_v) {
      EXPECT_GE(b, prev_bucket);
    }
    prev_bucket = b;
    prev_v = v;
  }
}

TEST(HistBuckets, BucketsTileTheRange) {
  // Bounds are contiguous: each bucket begins one past the previous end,
  // and the inverse maps every bucket's bounds back to itself.
  EXPECT_EQ(hist_bucket_lower(0), 0u);
  for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
    SCOPED_TRACE(b);
    EXPECT_EQ(hist_bucket_lower(b + 1), hist_bucket_upper(b) + 1);
    EXPECT_EQ(hist_bucket(hist_bucket_lower(b)), b);
    EXPECT_EQ(hist_bucket(hist_bucket_upper(b)), b);
  }
  EXPECT_EQ(hist_bucket(std::numeric_limits<std::uint64_t>::max()),
            kHistBuckets - 1);
  EXPECT_EQ(hist_bucket_upper(kHistBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(HistBuckets, RelativeErrorIsBounded) {
  // Log-linear with 4 sub-buckets per octave: bucket width <= 1/4 of the
  // bucket's lower bound, i.e. <= 25% relative error for any estimate read
  // back from a bucket.
  for (std::size_t b = 4; b + 1 < kHistBuckets; ++b) {
    SCOPED_TRACE(b);
    const std::uint64_t lo = hist_bucket_lower(b);
    const std::uint64_t hi = hist_bucket_upper(b);
    EXPECT_LE(hi - lo, lo / 4 + 1);
  }
}

// ---------------------------------------------------------------------------
// Snapshot arithmetic (both modes: hist_snapshot is a plain struct).

TEST(HistSnapshot, MergeAndQuantile) {
  obs::hist_snapshot a{};
  for (std::uint64_t v = 1; v <= 100; ++v) {
    const std::size_t b = hist_bucket(v);
    a.buckets[b] += 1;
    a.count += 1;
    a.sum += v;
    if (v > a.max) a.max = v;
  }
  EXPECT_EQ(a.count, 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  // Small quantiles are exact (unit buckets at the low end)...
  EXPECT_DOUBLE_EQ(a.quantile(0.001), 1.0);
  // ...larger ones interpolate within the true value's bucket.
  const double p50 = a.quantile(0.50);
  EXPECT_GE(p50, static_cast<double>(hist_bucket_lower(hist_bucket(50))));
  EXPECT_LE(p50, static_cast<double>(hist_bucket_upper(hist_bucket(50))));
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 100.0);  // clamped by the exact max

  obs::hist_snapshot b2{};
  b2.buckets[hist_bucket(7)] = 3;
  b2.count = 3;
  b2.sum = 21;
  b2.max = 7;
  a.merge(b2);
  EXPECT_EQ(a.count, 103u);
  EXPECT_EQ(a.sum, 5050u + 21u);
  EXPECT_EQ(a.max, 100u);
}

TEST(HistSnapshot, EmptyQuantileIsZero) {
  const obs::hist_snapshot empty{};
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.max, 0u);
}

// ---------------------------------------------------------------------------
// Compiled-out contract.

TEST(HistogramOff, LayerIsCompiledOut) {
  if (obs::compiled) GTEST_SKIP() << "telemetry compiled in";
  // The per-table block must vanish entirely behind [[no_unique_address]].
  EXPECT_TRUE(std::is_empty_v<obs::table_hists>);
  obs::hist_record(obs::global_hist::room_wait_ns, 42);
  obs::hist_accum a;
  a.note(3);
  EXPECT_TRUE(a.empty());  // the accumulator is a no-op too
  EXPECT_EQ(obs::hist_totals(obs::global_hist::room_wait_ns).count, 0u);
  EXPECT_EQ(obs::table_hist_totals(obs::table_hist::probe_depth).count, 0u);
  EXPECT_EQ(obs::now_if_enabled(), 0u);
}

// ---------------------------------------------------------------------------
// Recording (telemetry builds only).

class HistogramOn : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled) GTEST_SKIP() << "telemetry compiled out";
    obs::set_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    if (obs::compiled) {
      obs::set_enabled(false);
      scheduler::get().set_num_workers(4);
    }
  }
};

TEST_F(HistogramOn, TableHistsLedgerSurvivesDestruction) {
  const obs::hist_snapshot before =
      obs::table_hist_totals(obs::table_hist::probe_depth);
  {
    obs::table_hists h;
    for (std::uint64_t v = 1; v <= 50; ++v)
      h.record(obs::table_hist::probe_depth, v);
    const obs::hist_snapshot live =
        obs::table_hist_totals(obs::table_hist::probe_depth);
    EXPECT_EQ(live.count - before.count, 50u);
  }  // h dies: its samples must fold into the graveyard, not vanish
  const obs::hist_snapshot after =
      obs::table_hist_totals(obs::table_hist::probe_depth);
  EXPECT_EQ(after.count - before.count, 50u);
  EXPECT_GE(after.max, 50u);
}

TEST_F(HistogramOn, ProbeDepthLedgerMatchesOpCounters) {
  // The defining invariant: one probe-depth sample per operation, exactly.
  deterministic_table<> t(1024);
  for (std::uint64_t v = 1; v <= 300; ++v) t.insert(v);
  for (std::uint64_t v = 1; v <= 300; ++v) (void)t.find(v);
  for (std::uint64_t v = 1; v <= 100; ++v) t.erase(v);
  const obs::hist_snapshot d = t.hists().snapshot(obs::table_hist::probe_depth);
  const std::uint64_t ops = obs::total(obs::counter::find_ops) +
                            obs::total(obs::counter::insert_ops) +
                            obs::total(obs::counter::erase_ops);
  EXPECT_EQ(d.count, ops);
  EXPECT_GE(d.sum, d.count);  // every op probes at least one slot
  EXPECT_GE(d.max, 1u);
}

TEST_F(HistogramOn, BlockFlushMatchesPerSampleRecords) {
  // The pipelined engines' block accumulator must be indistinguishable
  // from per-sample record() calls once flushed.
  obs::hist_accum a;
  EXPECT_TRUE(a.empty());
  for (std::uint64_t v = 0; v <= 100; ++v) a.note(v);
  EXPECT_FALSE(a.empty());
  obs::table_hists h;
  h.record_block(obs::table_hist::probe_depth, a);
  obs::table_hists ref;
  for (std::uint64_t v = 0; v <= 100; ++v)
    ref.record(obs::table_hist::probe_depth, v);
  const obs::hist_snapshot s = h.snapshot(obs::table_hist::probe_depth);
  const obs::hist_snapshot r = ref.snapshot(obs::table_hist::probe_depth);
  EXPECT_EQ(s.buckets, r.buckets);
  EXPECT_EQ(s.count, 101u);
  EXPECT_EQ(s.sum, 5050u);
  EXPECT_EQ(s.max, 100u);
}

// Same hammer as above, through the block-flush path the pipelined
// engines use: workers accumulate locally and flush whole blocks while
// the drainer merges snapshots.
TEST_F(HistogramOn, ConcurrentBlockFlushWhileDrainIsRaceFree) {
  obs::table_hists h;
  constexpr std::size_t kBlocks = 200;
  constexpr std::size_t kPerBlock = 100;
  const std::size_t workers = static_cast<std::size_t>(num_workers());
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::hist_snapshot s =
          h.snapshot(obs::table_hist::probe_depth);
      EXPECT_GE(s.count, last);
      last = s.count;
    }
  });
  parallel_for(0, workers * kBlocks, [&](std::size_t i) {
    obs::hist_accum a;
    for (std::uint64_t v = 1; v <= kPerBlock; ++v) a.note((i + v) % 61 + 1);
    h.record_block(obs::table_hist::probe_depth, a);
  });
  stop.store(true, std::memory_order_release);
  drainer.join();
  const obs::hist_snapshot s = h.snapshot(obs::table_hist::probe_depth);
  EXPECT_EQ(s.count, workers * kBlocks * kPerBlock);
  std::uint64_t bucket_total = 0;
  for (const auto c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.max, 61u);  // kPerBlock > 61, so every block sees the max
}

TEST_F(HistogramOn, DisabledRecordsNothing) {
  obs::set_enabled(false);
  obs::table_hists h;
  h.record(obs::table_hist::probe_depth, 7);
  obs::hist_accum a;
  a.note(7);  // local accumulation is unconditional...
  h.record_block(obs::table_hist::probe_depth, a);  // ...the flush is gated
  obs::hist_record(obs::global_hist::room_wait_ns, 7);
  EXPECT_EQ(h.snapshot(obs::table_hist::probe_depth).count, 0u);
  EXPECT_EQ(obs::hist_totals(obs::global_hist::room_wait_ns).count, 0u);
  obs::set_enabled(true);
}

// The TSan-job hammer: all workers record into one striped histogram while
// a drainer thread repeatedly merges snapshots. Mid-drain sums may be
// partial (stripes are read one by one) but must never fault or trip TSan,
// and the post-join snapshot is exact.
TEST_F(HistogramOn, ConcurrentRecordWhileDrainIsRaceFree) {
  obs::table_hists h;
  constexpr std::size_t kPerWorker = 20000;
  const std::size_t workers = static_cast<std::size_t>(num_workers());
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::hist_snapshot s =
          h.snapshot(obs::table_hist::probe_depth);
      // Counts only grow while recording is in flight.
      EXPECT_GE(s.count, last);
      last = s.count;
    }
  });
  parallel_for(0, workers * kPerWorker, [&](std::size_t i) {
    h.record(obs::table_hist::probe_depth, (i % 61) + 1);
  });
  stop.store(true, std::memory_order_release);
  drainer.join();
  const obs::hist_snapshot s = h.snapshot(obs::table_hist::probe_depth);
  EXPECT_EQ(s.count, workers * kPerWorker);
  std::uint64_t bucket_total = 0;
  for (const auto c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_EQ(s.max, 61u);
}

}  // namespace
}  // namespace phch

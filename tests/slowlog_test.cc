// Tests for tegra::prof::SlowEventLog, the bounded log of the slowest wide
// events behind /slowlogz: admission policy, slowest-first ordering,
// capacity-bounded eviction, tie handling and thread safety. The /slowlogz
// rendering of these records is covered in http_admin_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "prof/wide_event.h"

namespace tegra {
namespace prof {
namespace {

WideEvent MakeSlowEvent(uint64_t trace_id, double total_seconds) {
  WideEvent event;
  event.trace_id = trace_id;
  event.total_seconds = total_seconds;
  event.queue_seconds = total_seconds * 0.25;
  event.extract_seconds = total_seconds * 0.75;
  event.num_lines = 8;
  event.num_columns = 3;
  event.sp_score = 0.1 * static_cast<double>(trace_id);
  event.outcome = "ok";
  return event;
}

TEST(SlowEventLogTest, EmptyLogSnapshotsEmpty) {
  SlowEventLog log(4);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.capacity(), 4u);
}

TEST(SlowEventLogTest, RetainsEverythingBelowCapacity) {
  SlowEventLog log(4);
  EXPECT_TRUE(log.Add(MakeSlowEvent(1, 0.010)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(2, 0.030)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(3, 0.020)));
  EXPECT_EQ(log.size(), 3u);
}

TEST(SlowEventLogTest, SnapshotIsSortedSlowestFirst) {
  SlowEventLog log(8);
  log.Add(MakeSlowEvent(1, 0.010));
  log.Add(MakeSlowEvent(2, 0.050));
  log.Add(MakeSlowEvent(3, 0.030));
  log.Add(MakeSlowEvent(4, 0.040));
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i - 1].total_seconds, snap[i].total_seconds)
        << "records " << i - 1 << " and " << i << " out of order";
  }
  EXPECT_EQ(snap.front().trace_id, 2u);
  EXPECT_EQ(snap.back().trace_id, 1u);
}

TEST(SlowEventLogTest, RetainsSlowestInDescendingOrder) {
  SlowEventLog log(3);
  EXPECT_TRUE(log.Add(MakeSlowEvent(1, 0.010)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(2, 0.050)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(3, 0.001)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(4, 0.030)));   // evicts 0.001
  EXPECT_FALSE(log.Add(MakeSlowEvent(5, 0.0001)));  // too fast, rejected
  const auto records = log.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].trace_id, 2u);
  EXPECT_EQ(records[1].trace_id, 4u);
  EXPECT_EQ(records[2].trace_id, 1u);
  EXPECT_GE(records[0].total_seconds, records[1].total_seconds);
  EXPECT_GE(records[1].total_seconds, records[2].total_seconds);
}

TEST(SlowEventLogTest, EvictsTheFastestWhenFull) {
  SlowEventLog log(3);
  log.Add(MakeSlowEvent(1, 0.010));
  log.Add(MakeSlowEvent(2, 0.020));
  log.Add(MakeSlowEvent(3, 0.030));
  // Slower than the current minimum: admitted, evicts trace 1.
  EXPECT_TRUE(log.Add(MakeSlowEvent(4, 0.015)));
  EXPECT_EQ(log.size(), 3u);
  const auto snap = log.Snapshot();
  for (const auto& rec : snap) EXPECT_NE(rec.trace_id, 1u);
  // Faster than every retained record: rejected, log unchanged.
  EXPECT_FALSE(log.Add(MakeSlowEvent(5, 0.001)));
  EXPECT_EQ(log.size(), 3u);
  const auto snap2 = log.Snapshot();
  ASSERT_EQ(snap2.size(), 3u);
  EXPECT_EQ(snap2[0].trace_id, 3u);
  EXPECT_EQ(snap2[1].trace_id, 2u);
  EXPECT_EQ(snap2[2].trace_id, 4u);
}

TEST(SlowEventLogTest, TiesKeepArrivalOrderAndDoNotEvict) {
  SlowEventLog log(2);
  EXPECT_TRUE(log.Add(MakeSlowEvent(1, 0.020)));
  EXPECT_TRUE(log.Add(MakeSlowEvent(2, 0.020)));
  // Full, and only as slow as the slowest retained: not admitted.
  EXPECT_FALSE(log.WouldAdmit(0.020));
  EXPECT_FALSE(log.Add(MakeSlowEvent(3, 0.020)));
  EXPECT_TRUE(log.WouldAdmit(0.021));
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].trace_id, 1u);
  EXPECT_EQ(snap[1].trace_id, 2u);
}

TEST(SlowEventLogTest, ZeroCapacityDisablesTheLog) {
  SlowEventLog log(0);
  EXPECT_FALSE(log.WouldAdmit(99.0));
  EXPECT_FALSE(log.Add(MakeSlowEvent(1, 99.0)));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(SlowEventLogTest, ClearDropsRecordsButKeepsCapacity) {
  SlowEventLog log(2);
  log.Add(MakeSlowEvent(1, 0.010));
  log.Add(MakeSlowEvent(2, 0.020));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.capacity(), 2u);
  EXPECT_TRUE(log.Add(MakeSlowEvent(3, 0.001)));  // Empty log admits anything.
}

TEST(SlowEventLogTest, RecordFieldsSurviveRoundTrip) {
  SlowEventLog log(2);
  WideEvent rec = MakeSlowEvent(7, 0.123);
  rec.cache_hit = true;
  rec.outcome = "deadline_exceeded";
  rec.sp_score = 0.42;
  log.Add(rec);
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].trace_id, 7u);
  EXPECT_DOUBLE_EQ(snap[0].total_seconds, 0.123);
  EXPECT_TRUE(snap[0].cache_hit);
  EXPECT_EQ(snap[0].outcome, "deadline_exceeded");
  EXPECT_DOUBLE_EQ(snap[0].sp_score, 0.42);
}

TEST(SlowEventLogTest, ConcurrentAddsStayBoundedAndSorted) {
  SlowEventLog log(16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Add(MakeSlowEvent(static_cast<uint64_t>(t * kPerThread + i),
                              1e-4 * static_cast<double>((i * 37 + t) % 997)));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 16u);
  for (size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i - 1].total_seconds, snap[i].total_seconds);
  }
  // The global maximum across every thread's schedule must be retained.
  int max_mod = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      max_mod = std::max(max_mod, (i * 37 + t) % 997);
    }
  }
  EXPECT_NEAR(snap.front().total_seconds, 1e-4 * max_mod, 1e-12);
}

}  // namespace
}  // namespace prof
}  // namespace tegra

#include "podium/obs/trace.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace podium::obs {
namespace {

// --- TraceId ---------------------------------------------------------------

TEST(TraceIdTest, HexRoundTripsBothHalves) {
  TraceId id;
  id.high = 0x4bf92f3577b34da6ULL;
  id.low = 0xa3ce929d0e0e4736ULL;
  EXPECT_EQ(id.ToHex(), "4bf92f3577b34da6a3ce929d0e0e4736");

  const std::optional<TraceId> parsed =
      TraceId::FromHex("4bf92f3577b34da6a3ce929d0e0e4736");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->high, id.high);
  EXPECT_EQ(parsed->low, id.low);
}

TEST(TraceIdTest, FromHexAcceptsUppercaseAndZero) {
  const std::optional<TraceId> upper =
      TraceId::FromHex("4BF92F3577B34DA6A3CE929D0E0E4736");
  ASSERT_TRUE(upper.has_value());
  EXPECT_EQ(upper->ToHex(), "4bf92f3577b34da6a3ce929d0e0e4736");

  const std::optional<TraceId> zero =
      TraceId::FromHex("00000000000000000000000000000000");
  ASSERT_TRUE(zero.has_value());
  EXPECT_TRUE(zero->IsZero());
}

TEST(TraceIdTest, FromHexRejectsWrongLengthAndNonHex) {
  EXPECT_FALSE(TraceId::FromHex("").has_value());
  EXPECT_FALSE(TraceId::FromHex("abc").has_value());
  EXPECT_FALSE(TraceId::FromHex(std::string(31, 'a')).has_value());
  EXPECT_FALSE(TraceId::FromHex(std::string(33, 'a')).has_value());
  // Right length, wrong alphabet.
  EXPECT_FALSE(
      TraceId::FromHex("4bf92f3577b34da6a3ce929d0e0e473g").has_value());
  EXPECT_FALSE(
      TraceId::FromHex("4bf92f3577b34da6-3ce929d0e0e4736").has_value());
}

TEST(TraceIdTest, GenerateIsNonZeroAndDistinct) {
  std::set<std::string> seen;
  for (int i = 0; i < 64; ++i) {
    const TraceId id = TraceId::Generate();
    EXPECT_FALSE(id.IsZero());
    EXPECT_EQ(id.ToHex().size(), 32u);
    seen.insert(id.ToHex());
  }
  EXPECT_EQ(seen.size(), 64u);
}

// --- TraceRing -------------------------------------------------------------

FinishedTrace MakeTrace(int n) {
  FinishedTrace trace;
  trace.trace_id = TraceId::Generate().ToHex();
  trace.method = "POST";
  trace.path = "/v1/select";
  trace.http_status = n;
  return trace;
}

TEST(TraceRingTest, EvictsOldestBeyondCapacity) {
  TraceRing ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  for (int n = 1; n <= 5; ++n) ring.Record(MakeTrace(n));
  EXPECT_EQ(ring.size(), 3u);

  const std::vector<FinishedTrace> all = ring.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  // Most recent first; 1 and 2 were evicted.
  EXPECT_EQ(all[0].http_status, 5);
  EXPECT_EQ(all[1].http_status, 4);
  EXPECT_EQ(all[2].http_status, 3);
}

TEST(TraceRingTest, SnapshotHonorsLimit) {
  TraceRing ring(8);
  for (int n = 1; n <= 4; ++n) ring.Record(MakeTrace(n));
  const std::vector<FinishedTrace> two = ring.Snapshot(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].http_status, 4);
  EXPECT_EQ(two[1].http_status, 3);
  // A limit beyond the retained count returns everything.
  EXPECT_EQ(ring.Snapshot(100).size(), 4u);
}

TEST(TraceRingTest, ClearEmptiesAndZeroCapacityDropsEverything) {
  TraceRing ring(2);
  ring.Record(MakeTrace(1));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());

  TraceRing disabled(0);
  disabled.Record(MakeTrace(1));
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(TraceRingTest, GlobalRingIsSharedAndBounded) {
  TraceRing& global = TraceRing::Global();
  EXPECT_EQ(&global, &TraceRing::Global());
  EXPECT_EQ(global.capacity(), 256u);
}

}  // namespace
}  // namespace podium::obs

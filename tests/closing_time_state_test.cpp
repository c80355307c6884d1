// Unit tests for the closing-times state (2SCENT machinery): ct lattice
// moves, unblock-list cascades, bundles, explore frames, and the
// copy-on-steal repair.
#include "temporal/temporal_state.hpp"

#include <gtest/gtest.h>

namespace parcycle {
namespace {

TEST(ClosingTimeState, InitiallyEverythingOpen) {
  ClosingTimeState st(8);
  EXPECT_TRUE(st.arrival_open(3, 1000000));
  EXPECT_EQ(st.closing_time(3), ClosingTimeState::kNever);
}

TEST(ClosingTimeState, LoweringBlocksLaterArrivals) {
  ClosingTimeState st(8);
  st.lower_closing_time(3, 100);
  EXPECT_FALSE(st.arrival_open(3, 100));  // arrival == ct blocked
  EXPECT_FALSE(st.arrival_open(3, 150));
  EXPECT_TRUE(st.arrival_open(3, 99));
  // Lowering never raises.
  st.lower_closing_time(3, 200);
  EXPECT_EQ(st.closing_time(3), 100);
}

TEST(ClosingTimeState, RaiseCascadesThroughUnblockLists) {
  ClosingTimeState st(8);
  // 1 failed; it wanted edge (1 -> 2 @ 50). 0 failed; it wanted (0 -> 1 @ 40).
  st.lower_closing_time(1, 30);
  st.register_unblock(2, 1, 50);
  st.lower_closing_time(0, 20);
  st.register_unblock(1, 0, 40);
  // In the algorithm a vertex holding unblock entries always has a lowered
  // closing time (it was explored), so establish that precondition.
  st.lower_closing_time(2, 35);
  // Raising ct(2) above 50 re-enables 1 for arrivals < 50, which in turn
  // re-enables 0 for arrivals < 40.
  st.raise_closing_time(2, 60);
  EXPECT_EQ(st.closing_time(1), 50);
  EXPECT_EQ(st.closing_time(0), 40);
}

TEST(ClosingTimeState, RaiseBelowEntryThresholdDoesNotFire) {
  ClosingTimeState st(8);
  st.lower_closing_time(1, 30);
  st.register_unblock(2, 1, 50);
  st.lower_closing_time(2, 35);
  st.raise_closing_time(2, 45);  // still <= 50: the edge stays unusable
  EXPECT_EQ(st.closing_time(1), 30);
  // A later, higher raise still finds the entry.
  st.raise_closing_time(2, 55);
  EXPECT_EQ(st.closing_time(1), 50);
}

TEST(ClosingTimeState, RegisterDeduplicates) {
  ClosingTimeState st(8);
  st.lower_closing_time(1, 10);
  st.register_unblock(2, 1, 50);
  st.register_unblock(2, 1, 50);
  st.lower_closing_time(2, 35);
  st.raise_closing_time(2, 60);
  EXPECT_EQ(st.closing_time(1), 50);
}

TEST(ClosingTimeState, HopsCarryBundles) {
  ClosingTimeState st(8);
  ClosingTimeState::Hop& h0 = st.push(3);
  h0.edges.push_back(BundleEdge{10, 0, 1});
  h0.edges.push_back(BundleEdge{20, 1, 2});
  EXPECT_EQ(st.frontier(), 3u);
  EXPECT_TRUE(st.on_path(3));
  EXPECT_EQ(st.hop(0).edges.size(), 2u);
  st.pop();
  EXPECT_FALSE(st.on_path(3));
  // Re-pushing hands back a cleared hop.
  ClosingTimeState::Hop& again = st.push(3);
  EXPECT_TRUE(again.edges.empty());
  st.pop();
}

TEST(ClosingTimeState, CopyFromReplicates) {
  ClosingTimeState victim(8);
  ClosingTimeState::Hop& hop = victim.push(1);
  hop.edges.push_back(BundleEdge{5, 7, 3});
  victim.lower_closing_time(4, 44);
  victim.register_unblock(5, 4, 60);
  victim.lower_closing_time(5, 30);

  ClosingTimeState thief(8);
  thief.copy_from(victim);
  EXPECT_EQ(thief.path_length(), 1u);
  EXPECT_EQ(thief.hop(0).edges.at(0).instances, 3u);
  EXPECT_EQ(thief.closing_time(4), 44);
  thief.raise_closing_time(5, 70);
  EXPECT_EQ(thief.closing_time(4), 60);
  EXPECT_EQ(victim.closing_time(4), 44) << "copies are independent";
}

TEST(ClosingTimeState, FramesStayPutAndAreNotCopied) {
  ClosingTimeState victim(8);
  ClosingTimeState::Frame& outer = victim.frame(0);
  outer.edges.push_back(TemporalGraph::OutEdge{.ts = 10, .dst = 3, .id = 2});
  outer.spawned.emplace_back(0, 1);
  // A nested call growing deeper frames leaves the outer one in place.
  ClosingTimeState::Frame& inner = victim.frame(40);
  EXPECT_NE(&inner, &outer);
  EXPECT_EQ(&victim.frame(0), &outer);
  ASSERT_EQ(outer.edges.size(), 1u);
  EXPECT_EQ(outer.edges[0].dst, 3u);

  victim.push(1);
  ClosingTimeState thief(8);
  thief.copy_from(victim);
  EXPECT_TRUE(thief.frame(0).edges.empty()) << "frames are never copied";
  EXPECT_TRUE(thief.frame(0).spawned.empty());
}

TEST(ClosingTimeState, RepairFullyReopensPoppedVertices) {
  ClosingTimeState victim(8);
  victim.push(0);
  victim.push(1);
  victim.push(2);
  victim.lower_closing_time(2, 30);
  // 6 waits on the popped vertex 2; 7 waits on the kept vertex 0.
  victim.lower_closing_time(6, 10);
  victim.register_unblock(2, 6, 25);
  victim.lower_closing_time(7, 10);
  victim.register_unblock(0, 7, 25);

  ClosingTimeState thief(8);
  thief.copy_from(victim);
  thief.repair_to_prefix(1);
  EXPECT_EQ(thief.path_length(), 1u);
  EXPECT_EQ(thief.closing_time(2), ClosingTimeState::kNever);
  EXPECT_EQ(thief.closing_time(6), 25) << "cascade fired for popped vertex";
  EXPECT_EQ(thief.closing_time(7), 10) << "kept vertex's waiter unchanged";
}

TEST(ClosingTimeState, ResetRestoresPristine) {
  ClosingTimeState st(8);
  st.push(0);
  st.lower_closing_time(3, 5);
  st.register_unblock(4, 3, 9);
  st.reset();
  EXPECT_EQ(st.path_length(), 0u);
  EXPECT_EQ(st.closing_time(3), ClosingTimeState::kNever);
  st.raise_closing_time(4, 100);
  EXPECT_EQ(st.closing_time(3), ClosingTimeState::kNever) << "no stale entry";
}

TEST(BundleMath, InstancesBeforeIsPrefixSum) {
  ClosingTimeState st(4);
  ClosingTimeState::Hop& hop = st.push(0);
  hop.edges = {{10, 0, 2}, {20, 1, 3}, {30, 2, 5}};
  // Defined in temporal_johnson.cpp but exercised via the public
  // algorithms; here we check the hop layout it depends on: ascending ts.
  EXPECT_LT(hop.edges[0].ts, hop.edges[1].ts);
  st.pop();
}

}  // namespace
}  // namespace parcycle

// Unit tests for the Johnson search state: blocking semantics, recursive
// unblocking, budget-aware pruning, and what copy-on-steal does to the
// blocking (the path half is search_path_test's PrefixRepairState suite).
#include "core/johnson_state.hpp"

#include <gtest/gtest.h>

namespace parcycle {
namespace {

TEST(JohnsonState, OnPathVertexBlocksEveryBudget) {
  JohnsonState st(10);
  st.push(2, kInvalidEdge);
  EXPECT_FALSE(st.can_visit(2, 1));
  EXPECT_FALSE(st.can_visit(2, 1000000));
}

TEST(JohnsonState, FailureBlocksAtAndBelowBudget) {
  JohnsonState st(10);
  st.push(2, kInvalidEdge);
  st.exit_failure(2, 7);
  st.pop();
  EXPECT_FALSE(st.can_visit(2, 7));  // equal budget: still blocked
  EXPECT_FALSE(st.can_visit(2, 3));
  EXPECT_TRUE(st.can_visit(2, 8));  // strictly larger budget may retry
}

TEST(JohnsonState, SuccessUnblocks) {
  JohnsonState st(10);
  st.push(2, kInvalidEdge);
  st.exit_success(2);
  st.pop();
  EXPECT_TRUE(st.can_visit(2, 1));
}

TEST(JohnsonState, RecursiveUnblockingCascades) {
  JohnsonState st(10);
  // 3 failed and waits on 4; 4 failed and waits on 5.
  st.push(3, kInvalidEdge);
  st.exit_failure(3, 100);
  st.pop();
  st.blist_add(4, 3);
  st.push(4, kInvalidEdge);
  st.exit_failure(4, 100);
  st.pop();
  st.blist_add(5, 4);
  st.push(5, kInvalidEdge);
  st.exit_failure(5, 100);
  st.pop();
  EXPECT_FALSE(st.can_visit(3, 100));
  EXPECT_FALSE(st.can_visit(4, 100));
  // Unblocking 5 must cascade 5 -> 4 -> 3. (unblock is a no-op on vertices
  // that are not blocked, matching the algorithm's call sites.)
  st.unblock(5);
  EXPECT_TRUE(st.can_visit(4, 1));
  EXPECT_TRUE(st.can_visit(3, 1));
}

TEST(JohnsonState, CascadeSkipsOnPathVertices) {
  JohnsonState st(10);
  st.push(3, kInvalidEdge);
  st.exit_failure(3, 100);
  st.pop();
  st.blist_add(5, 3);
  st.push(3, kInvalidEdge);  // 3 is re-visited and currently on the path
  st.unblock(5);
  // 3 stays blocked (it is on the path); path simplicity must win.
  EXPECT_FALSE(st.can_visit(3, 100));
}

TEST(JohnsonState, BlistDeduplicates) {
  JohnsonState st(10);
  st.blist_add(4, 3);
  st.blist_add(4, 3);
  st.blist_add(4, 3);
  // One unblock consumes the entry exactly once; no crash, 3 unblocked.
  st.push(3, kInvalidEdge);
  st.exit_failure(3, 50);
  st.pop();
  st.push(4, kInvalidEdge);
  st.exit_failure(4, 50);
  st.pop();
  st.unblock(4);
  EXPECT_TRUE(st.can_visit(3, 1));
}

TEST(JohnsonState, ResetClearsEverything) {
  JohnsonState st(10);
  st.push(1, kInvalidEdge);
  st.push(2, 9);
  st.exit_failure(2, 5);
  st.blist_add(3, 2);
  st.reset();
  EXPECT_EQ(st.path_length(), 0u);
  for (VertexId v = 0; v < 10; ++v) {
    EXPECT_TRUE(st.can_visit(v, 1)) << v;
    EXPECT_FALSE(st.on_path(v)) << v;
  }
}

TEST(JohnsonState, CopyFromReplicatesBlockingAndPath) {
  JohnsonState victim(10);
  victim.push(0, kInvalidEdge);
  victim.push(1, 11);
  victim.push(2, 12);
  victim.exit_failure(7, 33);
  victim.blist_add(8, 7);
  victim.push(8, kInvalidEdge);
  victim.exit_failure(8, 20);
  victim.pop();

  JohnsonState thief(10);
  thief.copy_from(victim);
  EXPECT_EQ(thief.path_length(), 3u);
  EXPECT_EQ(thief.path_vertex(2), 2u);
  EXPECT_TRUE(thief.on_path(1));
  EXPECT_FALSE(thief.can_visit(7, 33));
  // The copied Blist must cascade in the copy.
  thief.unblock(8);
  EXPECT_TRUE(thief.can_visit(7, 1));
  // ...without affecting the victim.
  EXPECT_FALSE(victim.can_visit(7, 33));
  EXPECT_FALSE(victim.can_visit(8, 20));
}

TEST(JohnsonState, RepairUnblocksRemovedSuffix) {
  // The Figure 6 scenario: vertices blocked *because of* the removed path
  // suffix must reopen; vertices blocked independently must stay blocked.
  JohnsonState victim(10);
  victim.push(0, kInvalidEdge);  // prefix the stolen task keeps
  victim.push(1, 11);            // suffix the victim added afterwards
  victim.push(2, 12);
  // b1=5 depends on the suffix vertex 1 (5 in Blist[1]); b3=6 depends on
  // vertex 7 which is not on the path at all.
  victim.exit_failure(5, 100);
  victim.blist_add(1, 5);
  victim.exit_failure(6, 100);
  victim.blist_add(7, 6);

  JohnsonState thief(10);
  thief.copy_from(victim);
  thief.repair_to_prefix({1});
  EXPECT_EQ(thief.path_length(), 1u);
  EXPECT_FALSE(thief.on_path(1));
  EXPECT_FALSE(thief.on_path(2));
  EXPECT_TRUE(thief.can_visit(5, 1)) << "suffix-dependent block must reopen";
  EXPECT_FALSE(thief.can_visit(6, 100)) << "independent block must survive";
}

TEST(JohnsonState, NaiveRestoreDropsAllBlocking) {
  JohnsonState victim(10);
  victim.push(0, kInvalidEdge);
  victim.push(1, 11);
  victim.exit_failure(6, 100);
  victim.blist_add(7, 6);

  JohnsonState thief(10);
  thief.copy_from(victim);
  thief.naive_restore_to_prefix(1);
  EXPECT_EQ(thief.path_length(), 1u);
  EXPECT_TRUE(thief.can_visit(6, 1)) << "naive mode forgets all blocks";
}

TEST(JohnsonState, CountersTrackOperations) {
  JohnsonState st(10);
  st.push(1, kInvalidEdge);
  st.exit_failure(1, 5);
  st.pop();
  st.unblock(1);
  EXPECT_GE(st.counters.unblock_operations, 1u);
  JohnsonState copy(10);
  copy.copy_from(st);
  EXPECT_EQ(copy.counters.state_copies, 1u);
}

}  // namespace
}  // namespace parcycle

// Unit tests for the Read-Tarjan state over both mark keys (remaining budget
// for static and windowed cycles, arrival time for temporal cycles): undo-log
// semantics and the lock-free prefix copy-on-steal contract.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/rt_state.hpp"

namespace parcycle {
namespace {

// Keys of one mark kind: a vertex marked kMark blocks kMark and kWorse and
// lets kBetter pass; kFresh and kFree pass an unmarked vertex.
template <typename Marks>
struct Keys;

template <>
struct Keys<BudgetMarks> {  // a larger remaining budget is better
  static constexpr std::int32_t kFresh = 1;
  static constexpr std::int32_t kMark = 7;
  static constexpr std::int32_t kWorse = 3;
  static constexpr std::int32_t kBetter = 8;
  static constexpr std::int32_t kFree = 1000;
};

template <>
struct Keys<ArrivalMarks> {  // an earlier arrival is better
  static constexpr Timestamp kFresh = 100;
  static constexpr Timestamp kMark = 50;
  static constexpr Timestamp kWorse = 99;
  static constexpr Timestamp kBetter = 49;
  static constexpr Timestamp kFree = 1000000;
};

template <typename Marks>
class ReadTarjanStateTest : public ::testing::Test {};

using MarkKinds = ::testing::Types<BudgetMarks, ArrivalMarks>;
TYPED_TEST_SUITE(ReadTarjanStateTest, MarkKinds);

TYPED_TEST(ReadTarjanStateTest, LoggedSetAndTruncateRestores) {
  using State = ReadTarjanState<TypeParam>;
  State st(8);
  EXPECT_EQ(st.mark(3), State::kUnmarked);
  st.logged_set(3, 10);
  EXPECT_EQ(st.mark(3), 10);
  const std::size_t mark = st.log_length();
  st.logged_set(3, 20);
  st.logged_set(4, 5);
  EXPECT_EQ(st.mark(3), 20);
  st.truncate_log(mark);
  EXPECT_EQ(st.mark(3), 10);  // restored to the pre-mark value
  EXPECT_EQ(st.mark(4), State::kUnmarked);
}

TYPED_TEST(ReadTarjanStateTest, CanVisitSemantics) {
  using K = Keys<TypeParam>;
  ReadTarjanState<TypeParam> st(8);
  EXPECT_TRUE(st.can_visit(2, K::kFresh));
  st.logged_set(2, K::kMark);
  EXPECT_FALSE(st.can_visit(2, K::kMark));  // equal key blocked
  EXPECT_FALSE(st.can_visit(2, K::kWorse));
  EXPECT_TRUE(st.can_visit(2, K::kBetter));
  st.push(5, kInvalidEdge);
  EXPECT_FALSE(st.can_visit(5, K::kFree));  // on-path always blocked
}

TYPED_TEST(ReadTarjanStateTest, PathTruncation) {
  ReadTarjanState<TypeParam> st(8);
  st.push(1, kInvalidEdge);
  st.push(2, 10);
  st.push(3, 11);
  st.truncate_path(1);
  EXPECT_EQ(st.path_length(), 1u);
  EXPECT_TRUE(st.on_path(1));
  EXPECT_FALSE(st.on_path(2));
  EXPECT_FALSE(st.on_path(3));
}

TYPED_TEST(ReadTarjanStateTest, PathCarriesArrivals) {
  ReadTarjanState<TypeParam> st(8);
  st.push(0, kInvalidEdge, 10);
  st.push(1, 3, 20);
  EXPECT_EQ(st.frontier(), 1u);
  EXPECT_EQ(st.frontier_arrival(), 20);
  EXPECT_EQ(st.path_arrival(0), 10);
  EXPECT_EQ(st.path_edge(1), 3u);
  st.truncate_path(1);
  EXPECT_EQ(st.frontier_arrival(), 10);
}

TYPED_TEST(ReadTarjanStateTest, CopyPrefixReplaysLog) {
  using State = ReadTarjanState<TypeParam>;
  using K = Keys<TypeParam>;
  State victim(8);
  victim.push(0, kInvalidEdge, 1);
  victim.push(1, 5, 5);
  victim.logged_set(6, 9);  // within the prefix
  const std::size_t log_prefix = victim.log_length();
  const std::size_t path_prefix = victim.path_length();
  victim.push(2, 6, 9);     // beyond the prefix
  victim.logged_set(7, 3);  // beyond the prefix

  State thief(8);
  thief.copy_prefix_from(victim, path_prefix, log_prefix);
  EXPECT_EQ(thief.path_length(), 2u);
  EXPECT_TRUE(thief.on_path(1));
  EXPECT_FALSE(thief.on_path(2));
  EXPECT_EQ(thief.frontier_arrival(), 5);
  EXPECT_EQ(thief.path_edge(1), 5u);
  EXPECT_EQ(thief.mark(6), 9);
  EXPECT_FALSE(thief.can_visit(6, 9));
  EXPECT_EQ(thief.mark(7), State::kUnmarked);
  EXPECT_TRUE(thief.can_visit(7, K::kFree));  // beyond-prefix mark not copied
  EXPECT_EQ(thief.counters.state_copies, 1u);
  // The thief's copied log is itself rewindable.
  thief.truncate_log(0);
  EXPECT_EQ(thief.mark(6), State::kUnmarked);
}

TYPED_TEST(ReadTarjanStateTest, FloorGuard) {
  ReadTarjanState<TypeParam> st(8);
  EXPECT_EQ(st.floor(), 0u);
  st.set_floor(3);
  EXPECT_EQ(st.floor(), 3u);
  st.set_floor(1);
  EXPECT_EQ(st.floor(), 1u);
}

TYPED_TEST(ReadTarjanStateTest, LogGrowsPastInitialCapacity) {
  using State = ReadTarjanState<TypeParam>;
  State st(4);
  for (int i = 0; i < 5000; ++i) {
    st.logged_set(static_cast<VertexId>(i % 4),
                  static_cast<typename State::Key>(i));
  }
  EXPECT_EQ(st.log_length(), 5000u);
  EXPECT_EQ(st.mark(3), 4999);
  st.truncate_log(0);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(st.mark(v), State::kUnmarked);
  }
}

TYPED_TEST(ReadTarjanStateTest, ResetClears) {
  using K = Keys<TypeParam>;
  ReadTarjanState<TypeParam> st(8);
  st.push(0, kInvalidEdge, 1);
  st.logged_set(3, 9);
  st.counters.cycles_found = 4;
  st.reset();
  EXPECT_EQ(st.path_length(), 0u);
  EXPECT_EQ(st.log_length(), 0u);
  EXPECT_FALSE(st.on_path(0));
  EXPECT_TRUE(st.can_visit(3, K::kFree));
  EXPECT_EQ(st.counters.cycles_found, 0u);
}

}  // namespace
}  // namespace parcycle

#include "common/bitmatrix.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pmx {
namespace {

TEST(BitMatrix, ConstructZero) {
  BitMatrix m(8);
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_TRUE(m.none());
}

TEST(BitMatrix, SetGetToggle) {
  BitMatrix m(4);
  m.set(1, 2);
  EXPECT_TRUE(m.get(1, 2));
  EXPECT_FALSE(m.get(2, 1));
  m.toggle(1, 2);
  EXPECT_FALSE(m.get(1, 2));
  m.toggle(3, 3);
  EXPECT_TRUE(m.get(3, 3));
}

TEST(BitMatrix, RowXorFlipsMaskedBits) {
  BitMatrix m(70);
  m.set(3, 0);
  m.set(3, 69);
  BitVector r(70);
  r.set(0);   // clears an existing bit
  r.set(64);  // sets a fresh bit in the second word
  m.row_xor(3, r);
  EXPECT_FALSE(m.get(3, 0));
  EXPECT_TRUE(m.get(3, 64));
  EXPECT_TRUE(m.get(3, 69));
  EXPECT_EQ(m.row(3).count(), 2u);
}

TEST(BitMatrix, RowColAny) {
  BitMatrix m(6);
  m.set(2, 5);
  EXPECT_TRUE(m.row_any(2));
  EXPECT_FALSE(m.row_any(3));
  EXPECT_TRUE(m.col_any(5));
  EXPECT_FALSE(m.col_any(2));
}

TEST(BitMatrix, RowOrIsAiVector) {
  // AI_u = OR of row u: "input u is connected to some output".
  BitMatrix m(4);
  m.set(0, 1);
  m.set(3, 2);
  const BitVector ai = m.row_or();
  EXPECT_TRUE(ai.get(0));
  EXPECT_FALSE(ai.get(1));
  EXPECT_FALSE(ai.get(2));
  EXPECT_TRUE(ai.get(3));
}

TEST(BitMatrix, ColOrIsAoVector) {
  // AO_v = OR of column v: "output v is driven by some input".
  BitMatrix m(4);
  m.set(0, 1);
  m.set(3, 2);
  const BitVector ao = m.col_or();
  EXPECT_FALSE(ao.get(0));
  EXPECT_TRUE(ao.get(1));
  EXPECT_TRUE(ao.get(2));
  EXPECT_FALSE(ao.get(3));
}

TEST(BitMatrix, PartialPermutationAccepts) {
  BitMatrix m(4);
  EXPECT_TRUE(m.is_partial_permutation());  // empty is valid
  m.set(0, 1);
  m.set(1, 0);
  m.set(3, 3);
  EXPECT_TRUE(m.is_partial_permutation());
}

TEST(BitMatrix, PartialPermutationRejectsRowConflict) {
  BitMatrix m(4);
  m.set(0, 1);
  m.set(0, 2);  // input 0 drives two outputs
  EXPECT_FALSE(m.is_partial_permutation());
}

TEST(BitMatrix, PartialPermutationRejectsColConflict) {
  BitMatrix m(4);
  m.set(0, 1);
  m.set(2, 1);  // two inputs drive output 1
  EXPECT_FALSE(m.is_partial_permutation());
}

TEST(BitMatrix, OrIsBStarAggregation) {
  // B* = B(0) | B(1) | ... as in Section 4.
  BitMatrix b0(4);
  BitMatrix b1(4);
  b0.set(0, 1);
  b1.set(2, 3);
  b1.set(0, 1);
  const BitMatrix b_star = b0 | b1;
  EXPECT_TRUE(b_star.get(0, 1));
  EXPECT_TRUE(b_star.get(2, 3));
  EXPECT_EQ(b_star.count(), 2u);
}

TEST(BitMatrix, AndMasking) {
  BitMatrix a(4);
  BitMatrix b(4);
  a.set(1, 1);
  a.set(2, 2);
  b.set(1, 1);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_TRUE(a.intersects(b));
  b.set(1, 1, false);
  b.set(2, 1);  // same row as a's (2, 2), different column
  EXPECT_FALSE(a.intersects(b));
  EXPECT_FALSE(BitMatrix(4).intersects(a));
}

TEST(BitMatrix, SetRowReplacesRow) {
  BitMatrix m(4);
  BitVector r(4);
  r.set(0);
  r.set(3);
  m.set_row(2, r);
  EXPECT_TRUE(m.get(2, 0));
  EXPECT_TRUE(m.get(2, 3));
  EXPECT_EQ(m.count(), 2u);
}

TEST(BitMatrix, ResetClearsEverything) {
  BitMatrix m(5);
  m.set(1, 1);
  m.set(4, 0);
  m.reset();
  EXPECT_TRUE(m.none());
}

TEST(BitMatrix, ToStringLayout) {
  BitMatrix m(3);
  m.set(0, 2);
  m.set(2, 0);
  EXPECT_EQ(m.to_string(), "001\n000\n100\n");
}

// Property: a random full permutation is always a valid partial permutation,
// and adding any duplicate row/column entry invalidates it.
class BitMatrixPermutationTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(BitMatrixPermutationTest, RandomPermutationIsValid) {
  const std::size_t n = GetParam();
  Rng rng(n + 42);
  const auto perm = rng.permutation(n);
  BitMatrix m(n);
  for (std::size_t u = 0; u < n; ++u) {
    m.set(u, perm[u]);
  }
  EXPECT_TRUE(m.is_partial_permutation());
  EXPECT_EQ(m.count(), n);
  // Every AI and AO bit must be set for a full permutation.
  EXPECT_EQ(m.row_or().count(), n);
  EXPECT_EQ(m.col_or().count(), n);
  // Corrupt it.
  const std::size_t u = static_cast<std::size_t>(rng.below(n));
  m.set(u, (perm[u] + 1) % n);
  EXPECT_FALSE(m.is_partial_permutation());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitMatrixPermutationTest,
                         ::testing::Values(2, 3, 8, 16, 64, 128));

}  // namespace
}  // namespace pmx

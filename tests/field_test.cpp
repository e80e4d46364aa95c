// CellField layouts and FieldSet behaviour.
#include <gtest/gtest.h>

#include "fvm/field.hpp"

using namespace finch::fvm;

class LayoutTest : public ::testing::TestWithParam<Layout> {};

TEST_P(LayoutTest, RoundTripAccess) {
  CellField f("I", 10, 6, GetParam());
  for (int32_t c = 0; c < 10; ++c)
    for (int32_t d = 0; d < 6; ++d) f.at(c, d) = c * 100.0 + d;
  for (int32_t c = 0; c < 10; ++c)
    for (int32_t d = 0; d < 6; ++d) EXPECT_DOUBLE_EQ(f.at(c, d), c * 100.0 + d);
}

TEST_P(LayoutTest, FlatIndexBijective) {
  CellField f("x", 7, 5, GetParam());
  std::vector<char> seen(35, 0);
  for (int32_t c = 0; c < 7; ++c)
    for (int32_t d = 0; d < 5; ++d) {
      size_t i = f.flat_index(c, d);
      ASSERT_LT(i, seen.size());
      EXPECT_EQ(seen[i], 0);
      seen[i] = 1;
    }
}

INSTANTIATE_TEST_SUITE_P(BothLayouts, LayoutTest, ::testing::Values(Layout::CellMajor, Layout::DofMajor),
                         [](const auto& info) {
                           return info.param == Layout::CellMajor ? "CellMajor" : "DofMajor";
                         });

TEST(CellField, CellMajorContiguityPerCell) {
  CellField f("I", 4, 3, Layout::CellMajor);
  EXPECT_EQ(f.flat_index(2, 0) + 1, f.flat_index(2, 1));
  EXPECT_EQ(f.flat_index(0, 2) + 1, f.flat_index(1, 0));
}

TEST(CellField, DofMajorContiguityPerDof) {
  CellField f("I", 4, 3, Layout::DofMajor);
  EXPECT_EQ(f.flat_index(0, 1) + 1, f.flat_index(1, 1));
  EXPECT_EQ(f.flat_index(3, 0) + 1, f.flat_index(0, 1));
}

TEST(CellField, ConvertLayoutPreservesValues) {
  CellField f("I", 6, 4, Layout::CellMajor);
  for (int32_t c = 0; c < 6; ++c)
    for (int32_t d = 0; d < 4; ++d) f.at(c, d) = 10.0 * c + d;
  f.convert_layout(Layout::DofMajor);
  EXPECT_EQ(f.layout(), Layout::DofMajor);
  for (int32_t c = 0; c < 6; ++c)
    for (int32_t d = 0; d < 4; ++d) EXPECT_DOUBLE_EQ(f.at(c, d), 10.0 * c + d);
  f.convert_layout(Layout::CellMajor);
  for (int32_t c = 0; c < 6; ++c)
    for (int32_t d = 0; d < 4; ++d) EXPECT_DOUBLE_EQ(f.at(c, d), 10.0 * c + d);
}

TEST(CellField, FillAndInit) {
  CellField f("x", 3, 2, Layout::CellMajor, 7.5);
  EXPECT_DOUBLE_EQ(f.at(2, 1), 7.5);
  f.fill(-1.0);
  EXPECT_DOUBLE_EQ(f.at(0, 0), -1.0);
}

TEST(FieldSet, AddGetHas) {
  FieldSet fs;
  fs.add("I", 5, 3);
  EXPECT_TRUE(fs.has("I"));
  EXPECT_FALSE(fs.has("J"));
  EXPECT_EQ(fs.get("I").dof_per_cell(), 3);
  EXPECT_THROW(fs.get("J"), std::out_of_range);
  EXPECT_THROW(fs.add("I", 5, 3), std::invalid_argument);
}

TEST(CellField, SwapStorageExchangesValuesNotNames) {
  CellField a("I", 4, 3, Layout::CellMajor, 1.0);
  CellField b("I_new", 4, 3, Layout::CellMajor, 2.0);
  const double* a_data = a.data().data();
  a.swap_storage(b);
  EXPECT_EQ(a.name(), "I");
  EXPECT_EQ(b.name(), "I_new");
  EXPECT_DOUBLE_EQ(a.at(3, 2), 2.0);
  EXPECT_DOUBLE_EQ(b.at(0, 0), 1.0);
  EXPECT_EQ(b.data().data(), a_data);  // the storage moved, it was not copied
}

TEST(CellField, SwapStorageRejectsMismatchedShapeOrLayout) {
  CellField f("I", 4, 3, Layout::CellMajor, 1.0);
  CellField fewer_cells("x", 3, 3, Layout::CellMajor);
  CellField fewer_dofs("x", 4, 2, Layout::CellMajor);
  CellField same_size_transposed("x", 3, 4, Layout::CellMajor);
  CellField other_layout("x", 4, 3, Layout::DofMajor);
  for (CellField* g : {&fewer_cells, &fewer_dofs, &same_size_transposed, &other_layout}) {
    EXPECT_THROW(f.swap_storage(*g), std::invalid_argument) << g->num_cells() << "x" << g->dof_per_cell();
    EXPECT_DOUBLE_EQ(f.at(3, 2), 1.0);  // a rejected swap leaves both fields alone
  }
}

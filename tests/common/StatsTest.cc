#include <gtest/gtest.h>

#include "common/Stats.hh"

using namespace sboram;

TEST(Means, GeometricMean)
{
    EXPECT_NEAR(gmean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(gmean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(gmean({}), 0.0);
}

TEST(Means, ArithmeticMean)
{
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(amean({}), 0.0);
}

TEST(Means, GmeanLeqAmean)
{
    std::vector<double> v{0.5, 3.0, 7.0, 1.2};
    EXPECT_LE(gmean(v), amean(v));
}

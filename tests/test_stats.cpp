// Tests for bba::stats: descriptive statistics and the Welch t-test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/ttest.hpp"

namespace bba::stats {
namespace {

TEST(Descriptive, MeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7.0}), 7.0);
}

TEST(Descriptive, VarianceIsUnbiased) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known: population variance 4, sample variance 4 * 8/7.
  EXPECT_NEAR(variance(xs), 4.0 * 8.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{1.0}), 0.0);
}

TEST(Descriptive, StddevIsSqrtVariance) {
  const std::vector<double> xs{1.0, 3.0};
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(2.0));
}

TEST(Descriptive, PercentileInterpolates) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
}

TEST(Descriptive, PercentileSingleElement) {
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{42.0}, 99.0), 42.0);
}

TEST(Descriptive, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0, 3.0, 10.0}), 2.5);
}

TEST(Descriptive, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min(xs), -1.0);
  EXPECT_DOUBLE_EQ(max(xs), 7.0);
}

TEST(Descriptive, WeightedMean) {
  const std::vector<double> xs{1.0, 3.0};
  const std::vector<double> ws{1.0, 3.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, ws), 2.5);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_DOUBLE_EQ(weighted_mean(xs, zero), 0.0);
}

TEST(Running, MatchesBatchStatistics) {
  const std::vector<double> xs{1.0, 2.5, -3.0, 8.0, 0.25, 4.5};
  Running r;
  for (double x : xs) r.add(x);
  EXPECT_EQ(r.count(), 6);
  EXPECT_NEAR(r.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(r.variance(), variance(xs), 1e-12);
  EXPECT_NEAR(r.stddev(), stddev(xs), 1e-12);
}

TEST(Running, MergeEqualsConcatenation) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0, 30.0, 40.0};
  Running ra, rb, rall;
  for (double x : a) {
    ra.add(x);
    rall.add(x);
  }
  for (double x : b) {
    rb.add(x);
    rall.add(x);
  }
  ra.merge(rb);
  EXPECT_EQ(ra.count(), rall.count());
  EXPECT_NEAR(ra.mean(), rall.mean(), 1e-12);
  EXPECT_NEAR(ra.variance(), rall.variance(), 1e-12);
}

TEST(Running, MergeWithEmpty) {
  Running a;
  a.add(5.0);
  Running empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-10);
  // I_x(2, 1) = x^2.
  EXPECT_NEAR(incomplete_beta(2.0, 1.0, 0.5), 0.25, 1e-10);
  // Symmetry: I_x(a, b) = 1 - I_{1-x}(b, a).
  EXPECT_NEAR(incomplete_beta(2.5, 1.5, 0.4),
              1.0 - incomplete_beta(1.5, 2.5, 0.6), 1e-10);
  EXPECT_DOUBLE_EQ(incomplete_beta(3.0, 2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(3.0, 2.0, 1.0), 1.0);
}

TEST(StudentT, TwoSidedPValues) {
  // t = 0 -> p = 1.
  EXPECT_NEAR(student_t_two_sided_p(0.0, 10.0), 1.0, 1e-12);
  // Large |t| -> p ~ 0.
  EXPECT_LT(student_t_two_sided_p(50.0, 10.0), 1e-8);
  // Known value: t distribution with df=10, t=2.228 has two-sided p=0.05.
  EXPECT_NEAR(student_t_two_sided_p(2.228, 10.0), 0.05, 0.001);
  // df=1 (Cauchy): t=1 -> p = 0.5.
  EXPECT_NEAR(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-6);
}

TEST(WelchTTest, IdenticalSamplesNotSignificant) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const TTestResult r = welch_t_test(a, a);
  EXPECT_NEAR(r.t, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-12);
  EXPECT_FALSE(r.significant());
}

TEST(WelchTTest, ClearlySeparatedSamplesSignificant) {
  const std::vector<double> a{1.0, 1.1, 0.9, 1.05, 0.95};
  const std::vector<double> b{5.0, 5.1, 4.9, 5.05, 4.95};
  const TTestResult r = welch_t_test(a, b);
  EXPECT_TRUE(r.significant(0.01));
  EXPECT_LT(r.t, 0.0);  // mean(a) < mean(b)
}

TEST(WelchTTest, KnownTextbookValue) {
  // Two samples with known Welch statistic.
  const std::vector<double> a{27.5, 21.0, 19.0, 23.6, 17.0, 17.9,
                              16.9, 20.1, 21.9, 22.6, 23.1, 19.6};
  const std::vector<double> b{27.1, 22.0, 20.8, 23.4, 23.4, 23.5,
                              25.8, 22.0, 24.8, 20.2, 21.9, 22.1};
  const TTestResult r = welch_t_test(a, b);
  // Reference (independently computed Welch statistic): t = -2.0896,
  // df = 18.938, p = 0.05039.
  EXPECT_NEAR(r.t, -2.0896, 0.001);
  EXPECT_NEAR(r.df, 18.938, 0.01);
  EXPECT_NEAR(r.p_value, 0.05039, 0.001);
}

TEST(WelchTTest, DegenerateConstantSamples) {
  const std::vector<double> a{2.0, 2.0, 2.0};
  const std::vector<double> b{2.0, 2.0};
  const TTestResult same = welch_t_test(a, b);
  EXPECT_DOUBLE_EQ(same.p_value, 1.0);
  const std::vector<double> c{3.0, 3.0};
  const TTestResult diff = welch_t_test(a, c);
  EXPECT_DOUBLE_EQ(diff.p_value, 0.0);
}

}  // namespace
}  // namespace bba::stats

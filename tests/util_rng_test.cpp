// Unit and statistical tests for the PCG32 generator and distributions.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <ostream>
#include <vector>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace xres {
namespace {

TEST(Pcg32, DeterministicForFixedSeed) {
  Pcg32 a{42, 7};
  Pcg32 b{42, 7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32());
  }
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a{42};
  Pcg32 b{43};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DifferentStreamsDiffer) {
  Pcg32 a{42, 1};
  Pcg32 b{42, 2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, DoublesInUnitInterval) {
  Pcg32 rng{1};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Pcg32, UniformMeanIsCentered) {
  Pcg32 rng{2};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform(2.0, 6.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.02);
  EXPECT_GE(stats.min(), 2.0);
  EXPECT_LT(stats.max(), 6.0);
}

TEST(Pcg32, NextBelowIsUnbiased) {
  Pcg32 rng{3};
  std::array<int, 5> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.next_below(5)]++;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Pcg32, UniformIntCoversInclusiveRange) {
  Pcg32 rng{4};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, BernoulliMatchesProbability) {
  Pcg32 rng{5};
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Pcg32, ExponentialHasCorrectMean) {
  Pcg32 rng{6};
  const Rate rate = Rate::per_hour(2.0);  // mean 30 min
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.exponential(rate).to_minutes());
  EXPECT_NEAR(stats.mean(), 30.0, 0.5);
  // Exponential: stddev == mean.
  EXPECT_NEAR(stats.stddev(), 30.0, 0.7);
}

TEST(Pcg32, ExponentialZeroRateIsNever) {
  Pcg32 rng{7};
  EXPECT_FALSE(rng.exponential(Rate::zero()).is_finite());
}

TEST(Pcg32, WeibullShapeOneIsExponential) {
  Pcg32 rng{8};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.weibull(1.0, Duration::minutes(10.0)).to_minutes());
  }
  EXPECT_NEAR(stats.mean(), 10.0, 0.2);
  EXPECT_NEAR(stats.stddev(), 10.0, 0.3);
}

TEST(Pcg32, WeibullShapeTwoHasGammaMean) {
  Pcg32 rng{9};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(rng.weibull(2.0, Duration::minutes(10.0)).to_minutes());
  }
  // mean = scale * Gamma(1.5) = 10 * 0.8862.
  EXPECT_NEAR(stats.mean(), 8.862, 0.15);
}

TEST(Pcg32, NormalIsStandard) {
  Pcg32 rng{10};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(DeriveSeed, OrderAndValueSensitive) {
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(1, 3, 2));
  EXPECT_NE(derive_seed(1, 2, 3), derive_seed(2, 2, 3));
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
}

TEST(DiscreteDistribution, ProbabilitiesNormalized) {
  const std::vector<double> w{2.0, 6.0, 2.0};
  DiscreteDistribution dist{w};
  EXPECT_DOUBLE_EQ(dist.probability(0), 0.2);
  EXPECT_DOUBLE_EQ(dist.probability(1), 0.6);
  EXPECT_DOUBLE_EQ(dist.probability(2), 0.2);
}

TEST(DiscreteDistribution, RejectsInvalidWeights) {
  const std::vector<double> empty;
  const std::vector<double> zeros{0.0, 0.0};
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(DiscreteDistribution{empty}, CheckError);
  EXPECT_THROW(DiscreteDistribution{zeros}, CheckError);
  EXPECT_THROW(DiscreteDistribution{negative}, CheckError);
}

struct PmfCase {
  const char* name;
  std::vector<double> weights;
};

// Prints the case name, which keeps test names stable: without it the
// parameter prints as raw bytes, i.e. the vector's heap addresses.
void PrintTo(const PmfCase& c, std::ostream* os) { *os << c.name; }

class DiscreteDistributionPmf : public ::testing::TestWithParam<PmfCase> {};

TEST_P(DiscreteDistributionPmf, EmpiricalMatchesExact) {
  const auto& weights = GetParam().weights;
  DiscreteDistribution dist{weights};
  Pcg32 rng{99};
  std::vector<int> counts(weights.size(), 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[dist.sample(rng)]++;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, dist.probability(i), 0.01)
        << "category " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pmfs, DiscreteDistributionPmf,
    ::testing::Values(PmfCase{"Single", {1.0}},
                      PmfCase{"Skewed", {0.55, 0.35, 0.10}},
                      PmfCase{"Uniform", {1.0, 1.0, 1.0, 1.0}},
                      PmfCase{"Rare", {0.01, 0.99}},
                      PmfCase{"ZeroMiddle", {5.0, 0.0, 5.0}},
                      PmfCase{"Ramp", {1, 2, 3, 4, 5, 6, 7, 8}}));

TEST(DiscreteDistribution, ZeroWeightCategoryNeverSampled) {
  DiscreteDistribution dist{std::vector<double>{1.0, 0.0, 1.0}};
  Pcg32 rng{123};
  for (int i = 0; i < 20000; ++i) {
    EXPECT_NE(dist.sample(rng), 1U);
  }
}

}  // namespace
}  // namespace xres

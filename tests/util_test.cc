#include <gtest/gtest.h>

#include "focq/util/checked_arith.h"
#include "focq/util/rng.h"
#include "focq/util/status.h"

namespace focq {
namespace {

TEST(CheckedArith, AddBasics) {
  EXPECT_EQ(CheckedAdd(2, 3), 5);
  EXPECT_EQ(CheckedAdd(-2, 3), 1);
  EXPECT_EQ(CheckedAdd(INT64_MAX, 0), INT64_MAX);
  EXPECT_FALSE(CheckedAdd(INT64_MAX, 1).has_value());
  EXPECT_FALSE(CheckedAdd(INT64_MIN, -1).has_value());
}

TEST(CheckedArith, SubBasics) {
  EXPECT_EQ(CheckedSub(2, 3), -1);
  EXPECT_FALSE(CheckedSub(INT64_MIN, 1).has_value());
  EXPECT_FALSE(CheckedSub(0, INT64_MIN).has_value());
}

TEST(CheckedArith, MulBasics) {
  EXPECT_EQ(CheckedMul(6, 7), 42);
  EXPECT_EQ(CheckedMul(-6, 7), -42);
  EXPECT_EQ(CheckedMul(INT64_MAX, 1), INT64_MAX);
  EXPECT_FALSE(CheckedMul(INT64_MAX, 2).has_value());
  EXPECT_FALSE(CheckedMul(INT64_MIN, -1).has_value());
}

TEST(CheckedArith, PowBasics) {
  EXPECT_EQ(CheckedPow(2, 10), 1024);
  EXPECT_EQ(CheckedPow(10, 0), 1);
  EXPECT_EQ(CheckedPow(-3, 3), -27);
  EXPECT_FALSE(CheckedPow(10, 40).has_value());
  EXPECT_FALSE(CheckedPow(2, -1).has_value());
}

TEST(CheckedArith, PrimeSmall) {
  EXPECT_FALSE(IsPrime(-7));
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(4));
  EXPECT_TRUE(IsPrime(97));
  EXPECT_FALSE(IsPrime(99));
}

TEST(CheckedArith, PrimeAgainstSieve) {
  // Cross-check against trial division up to 10000.
  for (CountInt n = 2; n < 10000; ++n) {
    bool expected = true;
    for (CountInt d = 2; d * d <= n; ++d) {
      if (n % d == 0) {
        expected = false;
        break;
      }
    }
    EXPECT_EQ(IsPrime(n), expected) << n;
  }
}

TEST(CheckedArith, PrimeLarge) {
  EXPECT_TRUE(IsPrime(2147483647));           // 2^31 - 1, Mersenne prime
  EXPECT_FALSE(IsPrime(2147483649));          // 3 * 715827883
  EXPECT_TRUE(IsPrime(9223372036854775783));  // largest prime below 2^63
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
    std::int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(3);
  int buckets[10] = {};
  for (int i = 0; i < 100000; ++i) ++buckets[rng.NextBelow(10)];
  for (int b : buckets) {
    EXPECT_GT(b, 9000);
    EXPECT_LT(b, 11000);
  }
}

TEST(Status, RoundTrip) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(Result, ValueAndStatus) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace focq

// Tests for Status/Result, Rng and WallTimer.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/random.h"
#include "common/status.h"
#include "common/timer.h"

namespace hkpr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("file missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "file missing");
  EXPECT_EQ(s.ToString(), "IOError: file missing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  ASSERT_TRUE(r.ok());
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 60);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(13);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntApproximatelyUniform) {
  Rng rng(19);
  const uint64_t bound = 10;
  const int n = 100000;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(bound)];
  for (uint64_t v = 0; v < bound; ++v) {
    EXPECT_NEAR(counts[v], n / static_cast<double>(bound), 500.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(29);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(29);
  EXPECT_EQ(rng.Next(), first);
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());  // ms >= s scale
}

TEST(WallTimerTest, RestartResets) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  const double before = timer.ElapsedSeconds();
  timer.Restart();
  EXPECT_LE(timer.ElapsedSeconds(), before + 1.0);
}

}  // namespace
}  // namespace hkpr

#include "workload/multiget.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/flat_map.hpp"

namespace das::workload {
namespace {

MultigetGenerator make_gen(std::uint64_t universe, double theta, IntDistPtr fanout) {
  MultigetGenerator::Config cfg;
  cfg.key_universe = universe;
  cfg.zipf_theta = theta;
  cfg.fanout = std::move(fanout);
  return MultigetGenerator{cfg};
}

TEST(MultigetGenerator, KeysAreDistinct) {
  auto gen = make_gen(1000, 0.99, make_fixed_int(16));
  Rng rng{1};
  for (int i = 0; i < 2000; ++i) {
    const auto spec = gen.generate(rng);
    ASSERT_EQ(spec.keys.size(), 16u);
    std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
    ASSERT_EQ(uniq.size(), 16u);
  }
}

TEST(MultigetGenerator, KeysWithinUniverse) {
  auto gen = make_gen(100, 0.5, make_uniform_int(1, 8));
  Rng rng{2};
  for (int i = 0; i < 5000; ++i) {
    for (const KeyId k : gen.generate(rng).keys) ASSERT_LT(k, 100u);
  }
}

TEST(MultigetGenerator, FanoutClampedToUniverse) {
  auto gen = make_gen(5, 0.0, make_fixed_int(50));
  Rng rng{3};
  const auto spec = gen.generate(rng);
  EXPECT_EQ(spec.keys.size(), 5u);  // all keys of the universe, distinct
  std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(MultigetGenerator, HeavySkewStillTerminatesWithDistinctKeys) {
  auto gen = make_gen(64, 1.5, make_fixed_int(32));
  Rng rng{4};
  for (int i = 0; i < 500; ++i) {
    const auto spec = gen.generate(rng);
    std::set<KeyId> uniq(spec.keys.begin(), spec.keys.end());
    ASSERT_EQ(uniq.size(), 32u);
  }
}

TEST(MultigetGenerator, SkewIsObservable) {
  auto gen = make_gen(10000, 0.99, make_fixed_int(1));
  Rng rng{5};
  std::map<KeyId, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[gen.generate(rng).keys[0]];
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  // Hottest key should be far above the uniform expectation of 10.
  EXPECT_GT(max_count, 1000);
}

TEST(MultigetGenerator, ThetaZeroIsRoughlyUniform) {
  auto gen = make_gen(100, 0.0, make_fixed_int(1));
  Rng rng{6};
  std::map<KeyId, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.generate(rng).keys[0]];
  EXPECT_EQ(counts.size(), 100u);
  for (const auto& [k, c] : counts) EXPECT_NEAR(c, n / 100, n / 100 * 0.2);
}

TEST(MultigetGenerator, RankToKeyIsABijection) {
  auto gen = make_gen(10000, 0.9, make_fixed_int(1));
  std::set<KeyId> keys;
  for (std::uint64_t r = 0; r < 10000; ++r) keys.insert(gen.key_for_rank(r));
  EXPECT_EQ(keys.size(), 10000u);
  EXPECT_EQ(*keys.rbegin(), 9999u);
}

TEST(MultigetGenerator, RankPermutationScattersHotKeys) {
  auto gen = make_gen(10000, 0.9, make_fixed_int(1));
  // The top-100 ranks should not cluster in a narrow key-id band.
  KeyId lo = 10000, hi = 0;
  for (std::uint64_t r = 0; r < 100; ++r) {
    lo = std::min(lo, gen.key_for_rank(r));
    hi = std::max(hi, gen.key_for_rank(r));
  }
  EXPECT_LT(lo, 2000u);
  EXPECT_GT(hi, 8000u);
}

TEST(MultigetGenerator, MeanFanoutDelegates) {
  auto gen = make_gen(100, 0.0, make_fixed_int(7));
  EXPECT_DOUBLE_EQ(gen.mean_fanout(), 7.0);
}

TEST(Trace, GenerateProducesSortedArrivals) {
  auto gen = make_gen(1000, 0.9, make_geometric(0.25, 64));
  Rng rng{7};
  const Trace trace = Trace::generate(gen, 0.01, 5000, rng);
  ASSERT_EQ(trace.requests.size(), 5000u);
  for (std::size_t i = 1; i < trace.requests.size(); ++i)
    ASSERT_GT(trace.requests[i].arrival, trace.requests[i - 1].arrival);
  EXPECT_GT(trace.total_operations(), 5000u);
}

TEST(Trace, SaveLoadRoundTrip) {
  auto gen = make_gen(500, 0.8, make_uniform_int(1, 12));
  Rng rng{8};
  const Trace trace = Trace::generate(gen, 0.05, 300, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "das_trace_test.txt").string();
  trace.save(path);
  const Trace loaded = Trace::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    ASSERT_DOUBLE_EQ(loaded.requests[i].arrival, trace.requests[i].arrival);
    ASSERT_EQ(loaded.requests[i].keys, trace.requests[i].keys);
  }
}

TEST(Trace, LoadMissingFileThrows) {
  EXPECT_THROW(Trace::load("/nonexistent/path/trace.txt"), std::logic_error);
}

TEST(MultigetGenerator, DeterministicForSameRngSeed) {
  auto gen = make_gen(2000, 0.9, make_geometric(0.2, 32));
  Rng a{9}, b{9};
  for (int i = 0; i < 200; ++i) ASSERT_EQ(gen.generate(a).keys, gen.generate(b).keys);
}

// The set-based generate() that predates the scan cutover, kept as the
// reference: every key draw, accept/reject decision and rank-scan fallback
// step of generate() must match it.
std::vector<KeyId> reference_generate(const MultigetGenerator& gen,
                                      const IntDistribution& fanout, Rng& rng) {
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(fanout.sample(rng), gen.key_universe()));
  std::vector<KeyId> keys;
  FlatSet<KeyId> seen;
  std::size_t attempts = 0;
  const std::size_t max_attempts = 64 * want + 64;
  while (keys.size() < want && attempts < max_attempts) {
    ++attempts;
    const KeyId key = gen.sample_key(rng);
    if (seen.insert(key)) keys.push_back(key);
  }
  for (std::uint64_t rank = 0; keys.size() < want; ++rank) {
    const KeyId key = gen.key_for_rank(rank);
    if (seen.insert(key)) keys.push_back(key);
  }
  return keys;
}

struct CutoverCase {
  const char* name;
  std::uint64_t universe;
  double theta;
  std::uint32_t fanout;
};

void PrintTo(const CutoverCase& c, std::ostream* os) { *os << c.name; }

class GeneratorCutover : public ::testing::TestWithParam<CutoverCase> {};

TEST_P(GeneratorCutover, MatchesSetBasedReference) {
  const CutoverCase& c = GetParam();
  const IntDistPtr fanout = make_fixed_int(c.fanout);
  const auto gen = make_gen(c.universe, c.theta, fanout);
  Rng rng{0xC07};
  Rng reference = rng;
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(gen.generate(rng).keys, reference_generate(gen, *fanout, reference))
        << "request " << i;
  }
  EXPECT_EQ(rng.next_u64(), reference.next_u64());
}

// Fan-outs straddle the cutover at 32; the theta = 3 cases exhaust the
// rejection budget on most requests and finish in the rank scan, on the
// scan-dedupe side (16 of 16 keys) and the set side (64 of 64).
INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSkew, GeneratorCutover,
    ::testing::Values(CutoverCase{"fanout1", 1000, 0.99, 1},
                      CutoverCase{"fanout31", 1000, 0.99, 31},
                      CutoverCase{"fanout32", 1000, 0.99, 32},
                      CutoverCase{"fanout33", 1000, 0.99, 33},
                      CutoverCase{"fanout64", 1000, 0.99, 64},
                      CutoverCase{"skew_scan_side", 16, 3.0, 16},
                      CutoverCase{"skew_set_side", 64, 3.0, 64}),
    [](const auto& param_info) { return std::string{param_info.param.name}; });

}  // namespace
}  // namespace das::workload

#include "store/hash_table.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"

namespace das::store {
namespace {

TEST(RobinHoodMap, EmptyOnConstruction) {
  RobinHoodMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_FALSE(map.contains(42));
}

TEST(RobinHoodMap, PutAndFind) {
  RobinHoodMap<int> map;
  EXPECT_TRUE(map.put(1, 100));
  EXPECT_TRUE(map.put(2, 200));
  ASSERT_NE(map.find(1), nullptr);
  EXPECT_EQ(*map.find(1), 100);
  EXPECT_EQ(*map.find(2), 200);
  EXPECT_EQ(map.size(), 2u);
}

TEST(RobinHoodMap, PutOverwritesAndReportsFalse) {
  RobinHoodMap<int> map;
  EXPECT_TRUE(map.put(1, 100));
  EXPECT_FALSE(map.put(1, 999));
  EXPECT_EQ(*map.find(1), 999);
  EXPECT_EQ(map.size(), 1u);
}

TEST(RobinHoodMap, EraseReturnsValue) {
  RobinHoodMap<std::string> map;
  map.put(5, "hello");
  const auto removed = map.erase(5);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(*removed, "hello");
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

TEST(RobinHoodMap, EraseMissingReturnsNullopt) {
  RobinHoodMap<int> map;
  map.put(1, 1);
  EXPECT_FALSE(map.erase(2).has_value());
  EXPECT_EQ(map.size(), 1u);
}

TEST(RobinHoodMap, GrowsPastInitialCapacity) {
  RobinHoodMap<int> map{16};
  for (std::uint64_t k = 0; k < 1000; ++k) map.put(k, static_cast<int>(k * 3));
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_GE(map.capacity(), 1024u);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), static_cast<int>(k * 3));
  }
}

TEST(RobinHoodMap, ReserveReachesTheCapacityPutsWouldGrowTo) {
  for (const std::uint64_t count : {0u, 1u, 14u, 15u, 1000u, 1792u, 1793u}) {
    RobinHoodMap<int> grown;
    for (std::uint64_t k = 0; k < count; ++k) grown.put(k, 1);
    RobinHoodMap<int> reserved;
    reserved.reserve(count);
    const std::size_t capacity = reserved.capacity();
    EXPECT_EQ(capacity, grown.capacity()) << count;
    for (std::uint64_t k = 0; k < count; ++k) reserved.put(k, 2);
    EXPECT_EQ(reserved.capacity(), capacity) << count;  // no rehash on the way
    EXPECT_EQ(reserved.size(), count);
    reserved.reserve(count / 2);  // never shrinks
    EXPECT_EQ(reserved.capacity(), capacity);
    for (std::uint64_t k = 0; k < count; ++k) ASSERT_EQ(*reserved.find(k), 2) << k;
  }
}

TEST(RobinHoodMap, LoadFactorStaysBounded) {
  RobinHoodMap<int> map;
  for (std::uint64_t k = 0; k < 10000; ++k) map.put(k, 1);
  EXPECT_LE(map.load_factor(), 0.875 + 1e-9);
}

TEST(RobinHoodMap, ProbeDistancesStayShort) {
  RobinHoodMap<int> map;
  for (std::uint64_t k = 0; k < 50000; ++k) map.put(k * 2654435761u, 1);
  // Robin-Hood with load <= 7/8 keeps the worst probe chain modest.
  EXPECT_LT(map.max_probe_distance(), 64u);
}

TEST(RobinHoodMap, ForEachVisitsEverything) {
  RobinHoodMap<int> map;
  for (std::uint64_t k = 0; k < 500; ++k) map.put(k, static_cast<int>(k));
  std::uint64_t key_sum = 0;
  std::size_t visits = 0;
  map.for_each([&](std::uint64_t k, int) {
    key_sum += k;
    ++visits;
  });
  EXPECT_EQ(visits, 500u);
  EXPECT_EQ(key_sum, 499ull * 500 / 2);
}

TEST(RobinHoodMap, FuzzAgainstStdUnorderedMap) {
  RobinHoodMap<int> map;
  std::unordered_map<std::uint64_t, int> ref;
  Rng rng{0xF00D};
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t key = rng.next_below(5000);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // put
        const int value = static_cast<int>(rng.next_below(1 << 20));
        const bool was_new = map.put(key, value);
        const bool ref_new = ref.insert_or_assign(key, value).second;
        ASSERT_EQ(was_new, ref_new);
        break;
      }
      case 2: {  // find
        const int* found = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end());
        if (found) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
      case 3: {  // erase
        const auto removed = map.erase(key);
        const auto it = ref.find(key);
        ASSERT_EQ(removed.has_value(), it != ref.end());
        if (removed) {
          ASSERT_EQ(*removed, it->second);
          ref.erase(it);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // Final full cross-check.
  map.for_each([&](std::uint64_t k, int v) {
    const auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(it->second, v);
  });
}

TEST(MixKey, IsDeterministicAndSpreads) {
  EXPECT_EQ(mix_key(42), mix_key(42));
  // Sequential keys should land in different low-bit buckets mostly.
  int same_bucket = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if ((mix_key(k) & 0xFF) == (mix_key(k + 1) & 0xFF)) ++same_bucket;
  }
  EXPECT_LT(same_bucket, 20);
}

}  // namespace
}  // namespace das::store

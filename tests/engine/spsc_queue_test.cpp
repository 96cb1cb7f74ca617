#include "engine/spsc_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

namespace canids::engine {
namespace {

// One-item batches: the queue's only producer and consumer entry points are
// the batch calls, so single items go through them too.
template <typename T>
bool push_one(SpscQueue<T>& queue, T value) {
  return queue.try_push_batch(&value, 1) == 1;
}

template <typename T>
std::optional<T> pop_one(SpscQueue<T>& queue) {
  std::vector<T> out;
  if (queue.pop_batch(out, 1) == 0) return std::nullopt;
  return out.front();
}

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(10).capacity(), 16u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 2048u);
}

TEST(SpscQueueTest, FifoOrderSingleThread) {
  SpscQueue<int> queue(8);
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(push_one(queue, i));
  for (int i = 0; i < 7; ++i) {
    const auto value = pop_one(queue);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
  EXPECT_FALSE(pop_one(queue).has_value());
}

TEST(SpscQueueTest, PushFailsWhenFullPopFailsWhenEmpty) {
  SpscQueue<int> queue(2);  // capacity 4, usable 3
  EXPECT_FALSE(pop_one(queue).has_value());
  EXPECT_TRUE(push_one(queue, 1));
  EXPECT_TRUE(push_one(queue, 2));
  EXPECT_TRUE(push_one(queue, 3));
  EXPECT_FALSE(push_one(queue, 4));
  EXPECT_EQ(queue.size_approx(), 3u);
  EXPECT_EQ(pop_one(queue), 1);
  EXPECT_TRUE(push_one(queue, 4));  // slot freed, wraps around
  EXPECT_EQ(pop_one(queue), 2);
  EXPECT_EQ(pop_one(queue), 3);
  EXPECT_EQ(pop_one(queue), 4);
}

TEST(SpscQueueTest, PopBatchDrainsInOrder) {
  SpscQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(push_one(queue, i));
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 4), 4u);
  EXPECT_EQ(queue.pop_batch(out, 100), 6u);
  EXPECT_EQ(queue.pop_batch(out, 4), 0u);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(out, expected);
}

TEST(SpscQueueTest, PushBatchFillsUpToCapacity) {
  SpscQueue<int> queue(4);  // capacity 8, usable 7
  const int values[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(queue.try_push_batch(values, 10), 7u);
  EXPECT_EQ(queue.try_push_batch(values + 7, 3), 0u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(pop_one(queue), i);
  EXPECT_EQ(queue.try_push_batch(values + 7, 3), 3u);  // wraps around
  std::vector<int> out;
  EXPECT_EQ(queue.pop_batch(out, 100), 7u);
  EXPECT_EQ(out, (std::vector<int>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(SpscQueueTest, TransfersEverythingAcrossThreadsInOrder) {
  constexpr std::uint32_t kCount = 200'000;
  SpscQueue<std::uint32_t> queue(64);  // small: forces wrap + contention

  std::thread producer([&queue] {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      while (!push_one(queue, i)) std::this_thread::yield();
    }
  });

  std::vector<std::uint32_t> received;
  received.reserve(kCount);
  std::vector<std::uint32_t> batch;
  while (received.size() < kCount) {
    batch.clear();
    if (queue.pop_batch(batch, 128) == 0) {
      std::this_thread::yield();
      continue;
    }
    received.insert(received.end(), batch.begin(), batch.end());
  }
  producer.join();

  ASSERT_EQ(received.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[i], i) << "reordered at " << i;
  }
  EXPECT_FALSE(pop_one(queue).has_value());
}

}  // namespace
}  // namespace canids::engine

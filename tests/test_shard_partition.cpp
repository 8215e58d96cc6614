// core::shard_of tests: the node -> shard partition NetworkSimulation
// uses in sharded mode.  Blocks of consecutive ids are dealt round-robin
// so that every time slice of the id-staggered broadcast schedule loads
// every shard; these tests pin the three properties that make that work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network_sim.hpp"

namespace {

using gcs::core::kShardBlock;
using gcs::core::shard_of;

struct Layout {
  std::size_t n;
  std::size_t k;
};

// Small and odd sizes (n = 32 on 4 shards, the n = 500 smoke cell) next
// to the 5 * 10^4-node benchmark cell.
const Layout kLayouts[] = {{1, 1},   {4, 4},    {5, 4},     {32, 4},
                           {63, 4},  {500, 4},  {500, 3},   {1000, 7},
                           {4096, 4}, {50000, 4}, {50000, 16}, {100, 100}};

std::size_t block_of(const Layout& l) {
  return std::clamp<std::size_t>(l.n / l.k, 1, kShardBlock);
}

std::string label(const Layout& l) {
  return "n=" + std::to_string(l.n) + " k=" + std::to_string(l.k);
}

TEST(ShardPartition, EveryShardIsNonEmptyAndSizesDifferByAtMostOneBlock) {
  for (const Layout& l : kLayouts) {
    std::vector<std::size_t> size(l.k, 0);
    for (std::size_t u = 0; u < l.n; ++u) {
      const std::uint32_t s = shard_of(u, l.k, l.n);
      ASSERT_LT(s, l.k) << label(l);
      ++size[s];
    }
    const auto [lo, hi] = std::minmax_element(size.begin(), size.end());
    EXPECT_GT(*lo, 0u) << label(l);
    EXPECT_LE(*hi - *lo, block_of(l)) << label(l);
  }
}

TEST(ShardPartition, EveryRunOfKBlocksTouchesEveryShard) {
  for (const Layout& l : kLayouts) {
    const std::size_t run = l.k * block_of(l);
    ASSERT_LE(run, l.n) << label(l);
    // Slide a window of `run` ids over [0, n), counting ids per shard.
    std::vector<std::size_t> count(l.k, 0);
    for (std::size_t u = 0; u < run; ++u) ++count[shard_of(u, l.k, l.n)];
    for (std::size_t first = 0;; ++first) {
      EXPECT_EQ(std::count(count.begin(), count.end(), 0u), 0)
          << label(l) << " first=" << first;
      if (first + run == l.n) break;
      --count[shard_of(first, l.k, l.n)];
      ++count[shard_of(first + run, l.k, l.n)];
    }
  }
}

TEST(ShardPartition, BlocksAreDealtRoundRobin) {
  // n = 50000 on 4 shards: 64-node blocks, block j on shard j mod 4.
  EXPECT_EQ(shard_of(0, 4, 50000), 0u);
  EXPECT_EQ(shard_of(63, 4, 50000), 0u);
  EXPECT_EQ(shard_of(64, 4, 50000), 1u);
  EXPECT_EQ(shard_of(255, 4, 50000), 3u);
  EXPECT_EQ(shard_of(256, 4, 50000), 0u);
  // One shard owns everything.
  EXPECT_EQ(shard_of(12345, 1, 50000), 0u);
}

}  // namespace

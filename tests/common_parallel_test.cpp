#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/error.hpp"

namespace xbarlife {
namespace {

/// Restores the serial default so test order never leaks thread state.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(1); }
};

TEST(Parallel, ChunkCountPartitionsByGrainOnly) {
  EXPECT_EQ(parallel_chunk_count(0, 0, 8), 0u);
  EXPECT_EQ(parallel_chunk_count(0, 1, 8), 1u);
  EXPECT_EQ(parallel_chunk_count(0, 8, 8), 1u);
  EXPECT_EQ(parallel_chunk_count(0, 9, 8), 2u);
  EXPECT_EQ(parallel_chunk_count(3, 9, 2), 3u);
  EXPECT_EQ(parallel_chunk_count(0, 100, 0), 100u);  // grain clamped to 1
  // The partition is a property of (begin, end, grain): thread count must
  // not appear anywhere in it (this is the determinism anchor).
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    set_parallel_threads(threads);
    std::vector<std::atomic<int>> hits(103);
    parallel_for(0, hits.size(), 7,
                 [&](std::size_t b, std::size_t e) {
                   for (std::size_t i = b; i < e; ++i) {
                     hits[i].fetch_add(1);
                   }
                 });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Parallel, ChunkIndicesMatchPartition) {
  ThreadGuard guard;
  set_parallel_threads(3);
  std::vector<std::pair<std::size_t, std::size_t>> spans(
      parallel_chunk_count(5, 26, 4));
  parallel_for_chunks(5, 26, 4,
                      [&](std::size_t ci, std::size_t b, std::size_t e) {
                        spans[ci] = {b, e};
                      });
  ASSERT_EQ(spans.size(), 6u);
  std::size_t expect_begin = 5;
  for (std::size_t ci = 0; ci < spans.size(); ++ci) {
    EXPECT_EQ(spans[ci].first, expect_begin);
    EXPECT_EQ(spans[ci].second, std::min(expect_begin + 4, std::size_t{26}));
    expect_begin = spans[ci].second;
  }
  EXPECT_EQ(expect_begin, 26u);
}

TEST(Parallel, ReduceIsThreadCountInvariant) {
  ThreadGuard guard;
  const auto sum_chunk = [](std::size_t b, std::size_t e) {
    double s = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      // Values spanning magnitudes so reassociation would be visible.
      s += 1.0 / static_cast<double>(i + 1);
    }
    return s;
  };
  const auto merge = [](double a, double b) { return a + b; };
  set_parallel_threads(1);
  const double serial =
      parallel_reduce(0, 10007, 64, 0.0, sum_chunk, merge);
  set_parallel_threads(4);
  for (int rep = 0; rep < 3; ++rep) {
    const double threaded =
        parallel_reduce(0, 10007, 64, 0.0, sum_chunk, merge);
    EXPECT_EQ(serial, threaded);  // bitwise, not approximate
  }
}

TEST(Parallel, NestedParallelForRunsInline) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::atomic<bool> nested_seen{false};
  parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    // A nested region must execute inline on the calling thread, in
    // order — fan-out layers rely on this for byte-identical results.
    std::vector<std::size_t> order;
    parallel_for(0, 4, 1, [&](std::size_t nb, std::size_t ne) {
      for (std::size_t i = nb; i < ne; ++i) {
        order.push_back(i);
      }
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
    nested_seen = true;
    (void)b;
    (void)e;
  });
  EXPECT_TRUE(nested_seen.load());
}

TEST(Parallel, GrainIsOneChunkWhenSerialOrNested) {
  ThreadGuard guard;
  set_parallel_threads(1);
  EXPECT_EQ(parallel_grain(100), 100u);
  EXPECT_EQ(parallel_grain(0), 1u);
  set_parallel_threads(4);
  const std::size_t threads = parallel_threads();
  EXPECT_EQ(parallel_grain(100),
            threads == 1 ? 100u : (100 + 4 * threads - 1) / (4 * threads));
  EXPECT_EQ(parallel_grain(1), 1u);
  // Inside a region nested loops run inline, so the grain is the whole
  // range; the pool size is not read there (the running fan-out holds
  // the pool, and asking for it would wait on that fan-out forever).
  std::atomic<int> whole{0};
  parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    if (parallel_grain(100) == 100) {
      whole.fetch_add(1);
    }
  });
  EXPECT_EQ(whole.load(), 8);
}

TEST(Parallel, ExceptionPropagatesToCaller) {
  ThreadGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    set_parallel_threads(threads);
    EXPECT_THROW(
        parallel_for(0, 64, 1,
                     [](std::size_t b, std::size_t) {
                       if (b == 13) {
                         throw std::runtime_error("boom");
                       }
                     }),
        std::runtime_error)
        << "threads=" << threads;
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    parallel_for(0, 10, 1,
                 [&](std::size_t, std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
  }
}

TEST(Parallel, SetThreadsInsideRegionThrows) {
  ThreadGuard guard;
  set_parallel_threads(2);
  parallel_for(0, 1, 1, [&](std::size_t, std::size_t) {
    EXPECT_THROW(set_parallel_threads(3), InvalidArgument);
  });
}

TEST(Parallel, DisjointWritesAreBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const auto fill = [](std::vector<double>& out) {
    parallel_for(0, out.size(), 16, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        out[i] = std::sin(static_cast<double>(i)) * 1e-3;
      }
    });
  };
  std::vector<double> serial(1000), threaded(1000);
  set_parallel_threads(1);
  fill(serial);
  set_parallel_threads(4);
  fill(threaded);
  EXPECT_EQ(serial, threaded);
}

}  // namespace
}  // namespace xbarlife

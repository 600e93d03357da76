#include <gtest/gtest.h>

#include "src/storage/hdd.hpp"
#include "src/storage/page_cache.hpp"

namespace greenvis::storage {
namespace {

struct CacheFixture {
  CacheFixture() : hdd(HddParams{}), queue(hdd), cache(queue, params()) {}
  static PageCacheParams params() {
    PageCacheParams p;
    p.capacity = util::mebibytes(1);  // 256 pages — small enough to evict
    return p;
  }
  HddModel hdd;
  AsyncBlockDevice queue;
  PageCache cache;
};

TEST(PageCache, MissThenHit) {
  CacheFixture f;
  Seconds t = f.cache.read(0, 4096, Seconds{0.0}, false);
  EXPECT_GT(t.value(), 0.0);
  EXPECT_EQ(f.cache.counters().misses, 1u);
  const Seconds t2 = f.cache.read(0, 4096, t, false);
  EXPECT_DOUBLE_EQ(t2.value(), t.value());  // hit: no device time
  EXPECT_EQ(f.cache.counters().hits, 1u);
}

TEST(PageCache, BufferedWriteCostsNoDeviceTime) {
  CacheFixture f;
  const Seconds t = f.cache.write(0, 65536, Seconds{0.0});
  EXPECT_DOUBLE_EQ(t.value(), 0.0);
  EXPECT_EQ(f.cache.dirty_pages(), 16u);
  EXPECT_EQ(f.hdd.counters().writes, 0u);
}

TEST(PageCache, ReadAfterWriteHitsCache) {
  CacheFixture f;
  Seconds t = f.cache.write(8192, 4096, Seconds{0.0});
  t = f.cache.read(8192, 4096, t, false);
  EXPECT_EQ(f.cache.counters().hits, 1u);
  EXPECT_EQ(f.hdd.counters().reads, 0u);
}

TEST(PageCache, FlushMakesPagesCleanAndWritesDevice) {
  CacheFixture f;
  Seconds t = f.cache.write(0, 16384, Seconds{0.0});
  t = f.cache.flush_all(t);
  f.hdd.flush(t);
  EXPECT_EQ(f.cache.dirty_pages(), 0u);
  EXPECT_EQ(f.cache.counters().writeback_pages, 4u);
  EXPECT_GT(f.hdd.counters().bytes_written.value(), 0u);
  // Pages remain resident after writeback.
  EXPECT_EQ(f.cache.resident_pages(), 4u);
}

TEST(PageCache, FlushCoalescesContiguousPages) {
  CacheFixture f;
  Seconds t = f.cache.write(0, 4096 * 8, Seconds{0.0});
  f.cache.flush_all(t);
  // 8 contiguous dirty pages -> 1 device write request.
  EXPECT_EQ(f.hdd.counters().writes, 1u);
}

TEST(PageCache, FlushPagesOnlyTouchesListedPages) {
  CacheFixture f;
  Seconds t = f.cache.write(0, 4096, Seconds{0.0});
  t = f.cache.write(1 << 20, 4096, t);
  const std::uint64_t page0 = 0;
  f.cache.flush_pages(std::vector<std::uint64_t>{page0}, t);
  EXPECT_EQ(f.cache.dirty_pages(), 1u);  // the other page stays dirty
}

TEST(PageCache, DropCleanKeepsDirty) {
  CacheFixture f;
  Seconds t = f.cache.read(0, 4096, Seconds{0.0}, false);
  t = f.cache.write(65536, 4096, t);
  f.cache.drop_clean();
  EXPECT_EQ(f.cache.resident_pages(), 1u);
  EXPECT_TRUE(f.cache.is_dirty(16));
  EXPECT_FALSE(f.cache.is_resident(0));
}

TEST(PageCache, ReadaheadExtendsSequentialReads) {
  CacheFixture f;
  Seconds t = f.cache.read(0, 4096, Seconds{0.0}, true);
  t = f.cache.read(4096, 4096, t, true);  // sequential: triggers readahead
  EXPECT_GT(f.cache.counters().readahead_pages, 0u);
  // The following reads inside the readahead window are hits.
  const auto hits_before = f.cache.counters().hits;
  f.cache.read(8192, 4096, t, true);
  EXPECT_GT(f.cache.counters().hits, hits_before);
}

TEST(PageCache, EvictsLruWhenFull) {
  CacheFixture f;
  const std::uint64_t pages = f.cache.params().capacity.value() / 4096;
  Seconds t{0.0};
  for (std::uint64_t p = 0; p < pages + 10; ++p) {
    t = f.cache.read(p * 4096, 4096, t, false);
  }
  EXPECT_LE(f.cache.resident_pages(), pages);
  EXPECT_GE(f.cache.counters().evictions, 10u);
  // The very first page was evicted (LRU).
  EXPECT_FALSE(f.cache.is_resident(0));
}

TEST(PageCache, EvictionWritesBackDirtyVictims) {
  CacheFixture f;
  const std::uint64_t pages = f.cache.params().capacity.value() / 4096;
  Seconds t = f.cache.write(0, 4096, Seconds{0.0});  // dirty page 0
  for (std::uint64_t p = 1; p < pages + 1; ++p) {
    t = f.cache.read(p * 4096, 4096, t, false);
  }
  EXPECT_FALSE(f.cache.is_resident(0));
  EXPECT_GE(f.cache.counters().writeback_pages, 1u);
}

TEST(PageCache, InsertCleanSkipsDevice) {
  CacheFixture f;
  const std::uint64_t reads_before = f.hdd.counters().reads;
  f.cache.insert_clean(std::vector<std::uint64_t>{3, 4, 5}, Seconds{0.0});
  EXPECT_EQ(f.hdd.counters().reads, reads_before);
  EXPECT_TRUE(f.cache.is_resident(4));
}

}  // namespace
}  // namespace greenvis::storage

// OS page cache model.
//
// Sits between the filesystem and a block device: 4 KiB pages, LRU eviction,
// dirty tracking with elevator-ordered writeback, and sequential readahead.
// The paper's methodology depends on cache discipline — "we perform a sync
// operation and drop the caches between phases. This ensures that the data
// does not get cached in memory and is actually written to the disk"
// (Sec. IV-C) — so `flush_*` and `drop_clean` model exactly those controls.
//
// Pages carry no payload (data lives with the filesystem); the cache is a
// timing and traffic model.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/storage/async_device.hpp"
#include "src/storage/block_device.hpp"

namespace greenvis::storage {

struct PageCacheParams {
  util::Bytes page_size{util::kibibytes(4)};
  /// Pages available to the cache (the testbed has 64 GB of DRAM; the kernel
  /// will happily use most of it).
  util::Bytes capacity{util::gibibytes(48)};
  /// Maximum readahead window for sequential reads.
  util::Bytes readahead_window{util::kibibytes(128)};
};

struct PageCacheCounters {
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  std::uint64_t readahead_pages{0};
  std::uint64_t writeback_pages{0};
  std::uint64_t evictions{0};
};

class PageCache {
 public:
  /// Issue through an existing submission queue, shared with the
  /// filesystem.
  PageCache(AsyncBlockDevice& queue, const PageCacheParams& params);

  /// Read device range [offset, offset+length); misses go to the device
  /// (coalesced, with readahead when the access continues the previous one
  /// and `allow_readahead` is set). Returns completion time.
  Seconds read(std::uint64_t offset, std::uint64_t length, Seconds start,
               bool allow_readahead = true);

  /// Buffered write: pages become resident+dirty, no device traffic now.
  Seconds write(std::uint64_t offset, std::uint64_t length, Seconds start);

  /// Write back dirty pages intersecting [offset, offset+length) in elevator
  /// order; pages stay resident and clean. No device barrier — callers
  /// decide when to pay for one.
  Seconds flush_range(std::uint64_t offset, std::uint64_t length,
                      Seconds start);
  Seconds flush_all(Seconds start);
  /// Write back exactly those of `pages` that are dirty (elevator order).
  /// Used by fsync: the filesystem knows which pages belong to the file.
  Seconds flush_pages(std::span<const std::uint64_t> pages, Seconds start);

  /// Insert pages as resident+clean without device traffic (e.g. a freshly
  /// written metadata block).
  Seconds insert_clean(std::span<const std::uint64_t> pages, Seconds start);

  [[nodiscard]] bool is_resident(std::uint64_t page) const {
    return pages_.contains(page);
  }
  [[nodiscard]] bool is_dirty(std::uint64_t page) const {
    auto it = pages_.find(page);
    return it != pages_.end() && it->second.dirty;
  }

  /// Evict all clean pages (echo 3 > /proc/sys/vm/drop_caches). Dirty pages
  /// survive, as in the kernel.
  void drop_clean();

  [[nodiscard]] std::uint64_t resident_pages() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t dirty_pages() const { return dirty_count_; }
  [[nodiscard]] const PageCacheCounters& counters() const { return counters_; }
  [[nodiscard]] const PageCacheParams& params() const { return params_; }

 private:
  struct PageState {
    std::list<std::uint64_t>::iterator lru_pos;
    bool dirty{false};
  };

  [[nodiscard]] std::uint64_t page_of(std::uint64_t offset) const {
    return offset / params_.page_size.value();
  }
  [[nodiscard]] std::uint64_t max_pages() const {
    return params_.capacity.value() / params_.page_size.value();
  }

  /// Insert or touch a page; may evict (and write back) the LRU victim.
  Seconds touch(std::uint64_t page, bool dirty, Seconds now);
  Seconds evict_one(Seconds now);
  /// Write back the coalesced dirty runs in `dirty` (ascending pages).
  Seconds write_back_runs(const std::vector<std::uint64_t>& dirty, Seconds t);

  AsyncBlockDevice& queue_;
  PageCacheParams params_;
  std::unordered_map<std::uint64_t, PageState> pages_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::uint64_t dirty_count_{0};
  std::uint64_t last_read_end_page_{~0ULL};
  PageCacheCounters counters_;
};

}  // namespace greenvis::storage

#include "src/storage/page_cache.hpp"

#include <algorithm>
#include <vector>

#include "src/obs/obs.hpp"
#include "src/obs/registry.hpp"
#include "src/util/error.hpp"

namespace greenvis::storage {

PageCache::PageCache(AsyncBlockDevice& queue, const PageCacheParams& params)
    : queue_(queue), params_(params) {
  GREENVIS_REQUIRE(params_.page_size.value() > 0);
  GREENVIS_REQUIRE(params_.capacity.value() >= params_.page_size.value());
}

// One batch per call: coalesce contiguous dirty pages, cap each request at
// kMaxRequestBytes, and hand the whole set to the queue in ascending order.
Seconds PageCache::write_back_runs(const std::vector<std::uint64_t>& dirty,
                                   Seconds t) {
  const std::uint64_t page_bytes = params_.page_size.value();
  const std::uint64_t max_run =
      std::max<std::uint64_t>(1, kMaxRequestBytes / page_bytes);
  std::vector<IoRequest> requests;
  std::size_t i = 0;
  while (i < dirty.size()) {
    std::size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1 &&
           j - i < max_run) {
      ++j;
    }
    const std::uint64_t bytes = (dirty[j - 1] - dirty[i] + 1) * page_bytes;
    requests.push_back(IoRequest{IoKind::kWrite, dirty[i] * page_bytes,
                                 static_cast<std::uint32_t>(bytes)});
    i = j;
  }
  return queue_.run_batch(requests, t);
}

Seconds PageCache::touch(std::uint64_t page, bool dirty, Seconds now) {
  auto it = pages_.find(page);
  if (it != pages_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    if (dirty && !it->second.dirty) {
      it->second.dirty = true;
      ++dirty_count_;
    }
    return now;
  }
  while (pages_.size() >= max_pages()) {
    now = evict_one(now);
  }
  lru_.push_front(page);
  pages_.emplace(page, PageState{lru_.begin(), dirty});
  if (dirty) {
    ++dirty_count_;
  }
  return now;
}

Seconds PageCache::evict_one(Seconds now) {
  GREENVIS_REQUIRE(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  auto it = pages_.find(victim);
  GREENVIS_ENSURE(it != pages_.end());
  if (it->second.dirty) {
    const std::uint64_t page_bytes = params_.page_size.value();
    const IoRequest wb{IoKind::kWrite, victim * page_bytes,
                       static_cast<std::uint32_t>(page_bytes)};
    now = queue_.run_batch(std::span<const IoRequest>(&wb, 1), now);
    --dirty_count_;
    ++counters_.writeback_pages;
  }
  lru_.pop_back();
  pages_.erase(it);
  ++counters_.evictions;
  return now;
}

Seconds PageCache::read(std::uint64_t offset, std::uint64_t length,
                        Seconds start, bool allow_readahead) {
  GREENVIS_REQUIRE(length > 0);
  const std::uint64_t page_bytes = params_.page_size.value();
  const std::uint64_t first = page_of(offset);
  const std::uint64_t last = page_of(offset + length - 1);

  // Sequential-access detection for readahead.
  const bool sequential = first == last_read_end_page_ + 1 || first == last_read_end_page_;
  std::uint64_t ra_last = last;
  if (allow_readahead && sequential) {
    const std::uint64_t ra_pages = params_.readahead_window.value() / page_bytes;
    ra_last = last + ra_pages;
    const std::uint64_t device_last =
        (queue_.backend().capacity().value() / page_bytes) - 1;
    ra_last = std::min(ra_last, device_last);
  }

  const std::uint64_t hits0 = counters_.hits;
  const std::uint64_t misses0 = counters_.misses;

  Seconds t = start;
  // Coalesce runs of missing pages into single device reads (capped at
  // kMaxRequestBytes per request, as in writeback).
  const std::uint64_t max_run =
      std::max<std::uint64_t>(1, kMaxRequestBytes / page_bytes);
  std::uint64_t run_start = 0;
  bool in_run = false;
  auto flush_run = [&](std::uint64_t run_end_exclusive) {
    for (std::uint64_t p = run_start; p < run_end_exclusive; p += max_run) {
      const std::uint64_t pages = std::min(max_run, run_end_exclusive - p);
      const IoRequest req{IoKind::kRead, p * page_bytes,
                          static_cast<std::uint32_t>(pages * page_bytes)};
      t = queue_.run_batch(std::span<const IoRequest>(&req, 1), t);
    }
    in_run = false;
  };

  for (std::uint64_t p = first; p <= ra_last; ++p) {
    const bool resident = pages_.contains(p);
    const bool demanded = p <= last;
    if (resident) {
      if (in_run) {
        flush_run(p);
      }
      if (demanded) {
        ++counters_.hits;
      }
    } else {
      if (!in_run) {
        run_start = p;
        in_run = true;
      }
      if (demanded) {
        ++counters_.misses;
      } else {
        ++counters_.readahead_pages;
      }
    }
  }
  if (in_run) {
    flush_run(ra_last + 1);
  }
  // Make everything we just read resident (touch order: ascending).
  for (std::uint64_t p = first; p <= ra_last; ++p) {
    t = touch(p, /*dirty=*/false, t);
  }
  last_read_end_page_ = last;
  if (obs::enabled()) {
    static obs::Counter& hits =
        obs::Registry::global().counter("storage.page_cache.hits");
    static obs::Counter& misses =
        obs::Registry::global().counter("storage.page_cache.misses");
    hits.add(counters_.hits - hits0);
    misses.add(counters_.misses - misses0);
  }
  return t;
}

Seconds PageCache::write(std::uint64_t offset, std::uint64_t length,
                         Seconds start) {
  GREENVIS_REQUIRE(length > 0);
  const std::uint64_t first = page_of(offset);
  const std::uint64_t last = page_of(offset + length - 1);
  Seconds t = start;
  for (std::uint64_t p = first; p <= last; ++p) {
    t = touch(p, /*dirty=*/true, t);
  }
  return t;
}

Seconds PageCache::flush_range(std::uint64_t offset, std::uint64_t length,
                               Seconds start) {
  const std::uint64_t first = page_of(offset);
  const std::uint64_t last = length == 0 ? first : page_of(offset + length - 1);

  std::vector<std::uint64_t> dirty;
  for (const auto& [page, state] : pages_) {
    if (state.dirty && page >= first && page <= last) {
      dirty.push_back(page);
    }
  }
  std::sort(dirty.begin(), dirty.end());

  const Seconds t = write_back_runs(dirty, start);
  for (std::uint64_t p : dirty) {
    auto it = pages_.find(p);
    GREENVIS_ENSURE(it != pages_.end());
    if (it->second.dirty) {
      it->second.dirty = false;
      --dirty_count_;
      ++counters_.writeback_pages;
    }
  }
  return t;
}

Seconds PageCache::flush_all(Seconds start) {
  return flush_range(0, queue_.backend().capacity().value(), start);
}

Seconds PageCache::flush_pages(std::span<const std::uint64_t> pages,
                               Seconds start) {
  std::vector<std::uint64_t> dirty;
  dirty.reserve(pages.size());
  for (std::uint64_t p : pages) {
    if (is_dirty(p)) {
      dirty.push_back(p);
    }
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

  const Seconds t = write_back_runs(dirty, start);
  for (std::uint64_t p : dirty) {
    auto it = pages_.find(p);
    GREENVIS_ENSURE(it != pages_.end());
    it->second.dirty = false;
    --dirty_count_;
    ++counters_.writeback_pages;
  }
  return t;
}

Seconds PageCache::insert_clean(std::span<const std::uint64_t> pages,
                                Seconds start) {
  Seconds t = start;
  for (std::uint64_t p : pages) {
    t = touch(p, /*dirty=*/false, t);
  }
  return t;
}

void PageCache::drop_clean() {
  for (auto it = pages_.begin(); it != pages_.end();) {
    if (!it->second.dirty) {
      lru_.erase(it->second.lru_pos);
      it = pages_.erase(it);
      ++counters_.evictions;
    } else {
      ++it;
    }
  }
  last_read_end_page_ = ~0ULL;
}

}  // namespace greenvis::storage

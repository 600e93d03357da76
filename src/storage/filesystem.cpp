#include "src/storage/filesystem.hpp"

#include <algorithm>

#include "src/obs/registry.hpp"
#include "src/util/error.hpp"
#include "src/util/rng.hpp"

namespace greenvis::storage {

Filesystem::Filesystem(BlockDevice& device, trace::VirtualClock& clock,
                       const FsParams& params)
    : device_(device), clock_(clock), params_(params),
      queue_(device), cache_(queue_, params.cache) {
  GREENVIS_REQUIRE(params_.block_size.value() > 0);
  GREENVIS_REQUIRE(params_.block_size.value() ==
                   params_.cache.page_size.value());
  GREENVIS_REQUIRE(params_.aged_scatter_groups >= 1);
  GREENVIS_REQUIRE(params_.aged_region_fraction > 0.0 &&
                   params_.aged_region_fraction < params_.journal_position_fraction);
  GREENVIS_REQUIRE(params_.metadata_stride_blocks >= 1);

  const std::size_t groups = params_.allocation == AllocationPolicy::kAged
                                 ? params_.aged_scatter_groups
                                 : 1;
  const double region =
      device_.capacity().as_double() * params_.aged_region_fraction;
  group_next_.resize(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    const double start = region * static_cast<double>(g) /
                         static_cast<double>(groups);
    // Align group starts to the block size.
    const std::uint64_t bs = params_.block_size.value();
    group_next_[g] = (static_cast<std::uint64_t>(start) / bs) * bs;
  }
}

void Filesystem::charge_syscall() {
  ++counters_.syscalls;
  clock_.advance(params_.syscall_overhead);
}

void Filesystem::settle_failed_batch() {
  Seconds end = clock_.now();
  for (const CompletionRecord& record : queue_.last_batch()) {
    end = std::max(end, record.complete);
  }
  clock_.advance_to(end);
}

Filesystem::Fd Filesystem::create(const std::string& name,
                                  bool force_contiguous) {
  GREENVIS_REQUIRE_MSG(!files_.contains(name), "file already exists: " + name);
  charge_syscall();
  FileNode node;
  node.id = next_file_id_++;
  node.contiguous = force_contiguous;
  files_.emplace(name, std::move(node));
  const Fd fd = next_fd_++;
  open_files_.emplace(fd, OpenFile{name, 0});
  return fd;
}

Filesystem::Fd Filesystem::open(const std::string& name) {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  charge_syscall();
  const Fd fd = next_fd_++;
  open_files_.emplace(fd, OpenFile{name, 0});
  return fd;
}

void Filesystem::close(Fd fd) {
  GREENVIS_REQUIRE_MSG(open_files_.erase(fd) == 1, "close of unknown fd");
}

bool Filesystem::exists(const std::string& name) const {
  return files_.contains(name);
}

void Filesystem::remove(const std::string& name) {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  charge_syscall();
  files_.erase(name);
}

util::Bytes Filesystem::file_size(const std::string& name) const {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  return util::Bytes{files_.at(name).size};
}

std::vector<std::string> Filesystem::list_files() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, node] : files_) {
    names.push_back(name);
  }
  return names;
}

Filesystem::FileNode& Filesystem::node_for(Fd fd) {
  auto it = open_files_.find(fd);
  GREENVIS_REQUIRE_MSG(it != open_files_.end(), "unknown fd");
  return files_.at(it->second.name);
}

const Filesystem::FileNode& Filesystem::node_for(Fd fd) const {
  auto it = open_files_.find(fd);
  GREENVIS_REQUIRE_MSG(it != open_files_.end(), "unknown fd");
  return files_.at(it->second.name);
}

std::uint64_t Filesystem::contiguous_begin() const {
  const std::uint64_t bs = params_.block_size.value();
  return static_cast<std::uint64_t>(device_.capacity().as_double() *
                                    params_.aged_region_fraction) /
         bs * bs;
}

std::uint64_t Filesystem::contiguous_end() const {
  return static_cast<std::uint64_t>(device_.capacity().as_double() *
                                    params_.journal_position_fraction);
}

util::Bytes Filesystem::contiguous_space() const {
  const std::uint64_t bs = params_.block_size.value();
  const std::uint64_t next = contig_next_ == 0 ? contiguous_begin()
                                               : contig_next_;
  const std::uint64_t end = contiguous_end();
  return util::Bytes{end > next ? (end - next) / bs * bs : 0};
}

std::uint64_t Filesystem::allocate_block(FileNode& node) {
  const std::uint64_t bs = params_.block_size.value();
  const std::size_t groups = group_next_.size();
  // Metadata (indirect-pointer) block every `stride` data blocks. Metadata
  // always lives in the block groups (inode tables), even for files whose
  // data is preallocated contiguously. A freshly written metadata block is
  // memory-resident: insert it into the page cache so only *cold* reads pay
  // for it (the journal commit models its durability cost).
  // Preallocated files are extent-mapped (ext4-style): their whole map fits
  // one metadata block. Aged files use ext3-style indirect blocks, one per
  // stride.
  const bool needs_meta =
      node.contiguous ? node.meta_blocks.empty()
                      : node.blocks.size() % params_.metadata_stride_blocks == 0;
  if (needs_meta) {
    const std::size_t mg =
        (node.meta_blocks.size() + static_cast<std::size_t>(node.id)) % groups;
    const std::uint64_t meta = group_next_[mg];
    group_next_[mg] += bs;
    node.meta_blocks.push_back(meta);
    const std::uint64_t meta_page = meta / bs;
    cache_.insert_clean(std::span<const std::uint64_t>{&meta_page, 1},
                        clock_.now());
  }

  std::uint64_t off = 0;
  if (node.contiguous) {
    // Preallocated data draws from a dedicated region between the block
    // groups and the journal.
    if (contig_next_ == 0) {
      contig_next_ = contiguous_begin();
    }
    off = contig_next_;
    contig_next_ += bs;
    GREENVIS_ENSURE(off + bs <= contiguous_end());
  } else {
    const std::size_t g =
        (node.blocks.size() + static_cast<std::size_t>(node.id)) % groups;
    off = group_next_[g];
    group_next_[g] += bs;
    GREENVIS_ENSURE(off + bs <= device_.capacity().value());
  }
  node.blocks.push_back(off);
  return off;
}

void Filesystem::grow_to(FileNode& node, std::uint64_t size) {
  const std::uint64_t bs = params_.block_size.value();
  while (node.blocks.size() * bs < size) {
    allocate_block(node);
  }
  node.size = std::max(node.size, size);
}

void Filesystem::do_write(Fd fd, std::span<const std::uint8_t> data,
                          std::uint64_t synthetic_len, std::uint64_t offset,
                          WriteMode mode) try {
  FileNode& node = node_for(fd);
  const std::uint64_t length =
      data.empty() ? synthetic_len : static_cast<std::uint64_t>(data.size());
  GREENVIS_REQUIRE(length > 0);

  if (data.empty()) {
    GREENVIS_REQUIRE_MSG(node.content.empty(),
                         "cannot mix synthetic and real payload");
    node.synthetic = true;
  } else {
    GREENVIS_REQUIRE_MSG(!node.synthetic,
                         "cannot mix real and synthetic payload");
    GREENVIS_REQUIRE_MSG(
        offset + length <= params_.max_real_content.value(),
        "real payload exceeds max_real_content; use write_synthetic");
    if (node.content.size() < offset + length) {
      node.content.resize(offset + length);
    }
    std::copy(data.begin(), data.end(),
              node.content.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  charge_syscall();
  grow_to(node, offset + length);
  counters_.logical_bytes_written += util::Bytes{length};
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    static obs::Counter& writes = registry.counter("storage.writes");
    static obs::Counter& written = registry.counter("storage.bytes_written");
    writes.add(1);
    written.add(length);
  }

  // Dirty the covered pages, coalescing device-contiguous block runs.
  const std::uint64_t bs = params_.block_size.value();
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block = (offset + length - 1) / bs;
  Seconds t = clock_.now();
  std::uint64_t run_dev = node.blocks[first_block];
  std::uint64_t run_len = bs;
  for (std::uint64_t b = first_block + 1; b <= last_block; ++b) {
    const std::uint64_t dev = node.blocks[b];
    if (dev == run_dev + run_len) {
      run_len += bs;
    } else {
      t = cache_.write(run_dev, run_len, t);
      run_dev = dev;
      run_len = bs;
    }
  }
  t = cache_.write(run_dev, run_len, t);
  clock_.advance_to(t);

  if (mode == WriteMode::kSync) {
    flush_file_data(node);
    journal_commit();
  }
} catch (const DeviceError&) {
  settle_failed_batch();
  throw;
}

void Filesystem::write(Fd fd, std::span<const std::uint8_t> data,
                       WriteMode mode) {
  auto& of = open_files_.at(fd);
  do_write(fd, data, 0, of.cursor, mode);
  of.cursor += data.size();
}

void Filesystem::write_synthetic(Fd fd, util::Bytes length, WriteMode mode) {
  auto& of = open_files_.at(fd);
  do_write(fd, {}, length.value(), of.cursor, mode);
  of.cursor += length.value();
}

std::uint8_t Filesystem::synthetic_byte(std::uint64_t file_id,
                                        std::uint64_t offset) {
  std::uint64_t s = file_id * 0x9E3779B97F4A7C15ULL + offset;
  return static_cast<std::uint8_t>(util::splitmix64_next(s) & 0xFF);
}

std::uint64_t Filesystem::read_internal(FileNode& node,
                                        std::span<std::uint8_t> out,
                                        std::uint64_t offset,
                                        std::uint64_t length,
                                        ReadMode mode) try {
  if (offset >= node.size) {
    return 0;
  }
  length = std::min(length, node.size - offset);
  if (length == 0) {
    return 0;
  }
  charge_syscall();
  counters_.logical_bytes_read += util::Bytes{length};
  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    static obs::Counter& reads = registry.counter("storage.reads");
    static obs::Counter& read_bytes = registry.counter("storage.bytes_read");
    reads.add(1);
    read_bytes.add(length);
  }

  const std::uint64_t bs = params_.block_size.value();
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block = (offset + length - 1) / bs;
  Seconds t = clock_.now();

  // Cold metadata: fetch the indirect block covering each stride once
  // (extent-mapped files have a single map block).
  for (std::uint64_t b = first_block; b <= last_block; ++b) {
    const std::size_t meta_idx =
        node.contiguous
            ? 0
            : static_cast<std::size_t>(b / params_.metadata_stride_blocks);
    GREENVIS_ENSURE(meta_idx < node.meta_blocks.size());
    const std::uint64_t meta_dev = node.meta_blocks[meta_idx];
    if (!cache_.is_resident(meta_dev / bs)) {
      ++counters_.metadata_block_reads;
      t = cache_.read(meta_dev, bs, t, /*allow_readahead=*/false);
    }
  }

  // Data: coalesce device-contiguous runs. O_DIRECT bypasses the page cache
  // and transfers exactly the byte range requested (block-granular device
  // access would be an option; real O_DIRECT requires sector alignment and
  // we model the common aligned case).
  const bool direct = mode == ReadMode::kDirect;
  const std::uint64_t first_byte_in_block = offset - first_block * bs;
  const std::uint64_t last_byte_in_block = (offset + length - 1) - last_block * bs;
  auto issue = [&](std::uint64_t dev, std::uint64_t len, bool is_first,
                   bool is_last) {
    if (direct) {
      std::uint64_t dev_off = dev;
      std::uint64_t dev_len = len;
      if (is_first) {
        dev_off += first_byte_in_block;
        dev_len -= first_byte_in_block;
      }
      if (is_last) {
        dev_len -= (bs - 1 - last_byte_in_block);
      }
      // Long runs go out as back-to-back requests of at most
      // kMaxRequestBytes, so no length is narrowed.
      for (std::uint64_t done = 0; done < dev_len; done += kMaxRequestBytes) {
        const IoRequest req{IoKind::kRead, dev_off + done,
                            static_cast<std::uint32_t>(std::min(
                                kMaxRequestBytes, dev_len - done))};
        t = queue_.run_batch(std::span<const IoRequest>(&req, 1), t);
      }
    } else {
      t = cache_.read(dev, len, t, /*allow_readahead=*/true);
    }
  };
  std::uint64_t run_dev = node.blocks[first_block];
  std::uint64_t run_len = bs;
  bool run_is_first = true;
  for (std::uint64_t b = first_block + 1; b <= last_block; ++b) {
    const std::uint64_t dev = node.blocks[b];
    if (dev == run_dev + run_len) {
      run_len += bs;
    } else {
      issue(run_dev, run_len, run_is_first, /*is_last=*/false);
      run_is_first = false;
      run_dev = dev;
      run_len = bs;
    }
  }
  issue(run_dev, run_len, run_is_first, /*is_last=*/true);
  clock_.advance_to(t);

  // Payload.
  if (!out.empty()) {
    const std::uint64_t n = std::min<std::uint64_t>(out.size(), length);
    for (std::uint64_t i = 0; i < n; ++i) {
      out[i] = node.synthetic ? synthetic_byte(node.id, offset + i)
                              : node.content[offset + i];
    }
  }
  return length;
} catch (const DeviceError&) {
  settle_failed_batch();
  throw;
}

std::uint64_t Filesystem::read(Fd fd, std::span<std::uint8_t> out,
                               ReadMode mode) {
  auto& of = open_files_.at(fd);
  FileNode& node = files_.at(of.name);
  const std::uint64_t n =
      read_internal(node, out, of.cursor, out.size(), mode);
  of.cursor += n;
  return n;
}

std::uint64_t Filesystem::pread(Fd fd, std::span<std::uint8_t> out,
                                std::uint64_t offset, ReadMode mode) {
  return read_internal(node_for(fd), out, offset, out.size(), mode);
}

std::uint64_t Filesystem::pread_timed(Fd fd, std::uint64_t offset,
                                      std::uint64_t length, ReadMode mode) {
  return read_internal(node_for(fd), {}, offset, length, mode);
}

void Filesystem::mark_dirty(const std::string& name, std::uint64_t offset,
                            std::uint64_t length) try {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  FileNode& node = files_.at(name);
  GREENVIS_REQUIRE(length > 0 && offset + length <= node.size);
  charge_syscall();
  const std::uint64_t bs = params_.block_size.value();
  const std::uint64_t first_block = offset / bs;
  const std::uint64_t last_block = (offset + length - 1) / bs;
  Seconds t = clock_.now();
  std::uint64_t run_dev = node.blocks[first_block];
  std::uint64_t run_len = bs;
  for (std::uint64_t b = first_block + 1; b <= last_block; ++b) {
    const std::uint64_t dev = node.blocks[b];
    if (dev == run_dev + run_len) {
      run_len += bs;
    } else {
      t = cache_.write(run_dev, run_len, t);
      run_dev = dev;
      run_len = bs;
    }
  }
  t = cache_.write(run_dev, run_len, t);
  clock_.advance_to(t);
} catch (const DeviceError&) {
  settle_failed_batch();
  throw;
}

void Filesystem::seek_to(Fd fd, std::uint64_t offset) {
  open_files_.at(fd).cursor = offset;
}

std::uint64_t Filesystem::tell(Fd fd) const {
  return open_files_.at(fd).cursor;
}

void Filesystem::flush_file_data(const FileNode& node) {
  const std::uint64_t bs = params_.block_size.value();
  std::vector<std::uint64_t> pages;
  pages.reserve(node.blocks.size());
  for (std::uint64_t dev : node.blocks) {
    pages.push_back(dev / bs);
  }
  Seconds t = cache_.flush_pages(pages, clock_.now());
  t = queue_.flush(t);
  clock_.advance_to(t);
}

void Filesystem::journal_commit() {
  ++counters_.journal_commits;
  const std::uint64_t base = static_cast<std::uint64_t>(
      device_.capacity().as_double() * params_.journal_position_fraction);
  const std::uint64_t record = params_.journal_record.value();
  const std::uint64_t commit_block = params_.block_size.value();
  if (journal_head_ + record + commit_block > params_.journal_size.value()) {
    journal_head_ = 0;
  }

  Seconds t = clock_.now();
  // Descriptor + metadata write, then a barrier to make it durable.
  const IoRequest desc{IoKind::kWrite, base + journal_head_,
                       static_cast<std::uint32_t>(record)};
  t = queue_.run_batch(std::span<const IoRequest>(&desc, 1), t);
  t = queue_.flush(t);
  // The commit record is only issued once the descriptor IO has completed
  // and the host has taken an interrupt — by which time the platter has
  // rotated past, so the commit pays (most of) a full rotation.
  t += params_.journal_commit_gap;
  const IoRequest commit{IoKind::kWrite, base + journal_head_ + record,
                         static_cast<std::uint32_t>(commit_block)};
  t = queue_.run_batch(std::span<const IoRequest>(&commit, 1), t);
  t = queue_.flush(t);
  journal_head_ += record + commit_block;
  clock_.advance_to(t);
}

void Filesystem::fsync(Fd fd) try {
  const FileNode& node = node_for(fd);
  charge_syscall();
  const std::uint64_t bs = params_.block_size.value();
  bool any_dirty = false;
  for (std::uint64_t dev : node.blocks) {
    if (cache_.is_dirty(dev / bs)) {
      any_dirty = true;
      break;
    }
  }
  if (!any_dirty) {
    return;
  }
  flush_file_data(node);
  journal_commit();
} catch (const DeviceError&) {
  settle_failed_batch();
  throw;
}

void Filesystem::sync_all() try {
  charge_syscall();
  const bool had_dirty = cache_.dirty_pages() > 0;
  Seconds t = cache_.flush_all(clock_.now());
  t = queue_.flush(t);
  clock_.advance_to(t);
  if (had_dirty) {
    journal_commit();
  }
} catch (const DeviceError&) {
  settle_failed_batch();
  throw;
}

void Filesystem::drop_caches() {
  sync_all();
  cache_.drop_clean();
}

std::vector<Extent> Filesystem::extents(const std::string& name) const {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  const FileNode& node = files_.at(name);
  const std::uint64_t bs = params_.block_size.value();
  std::vector<Extent> out;
  for (std::uint64_t dev : node.blocks) {
    if (!out.empty() &&
        out.back().device_offset + out.back().length == dev) {
      out.back().length += bs;
    } else {
      out.push_back(Extent{dev, bs});
    }
  }
  return out;
}

double Filesystem::fragmentation(const std::string& name) const {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  const FileNode& node = files_.at(name);
  if (node.blocks.size() < 2) {
    return 0.0;
  }
  const std::uint64_t bs = params_.block_size.value();
  std::size_t breaks = 0;
  for (std::size_t i = 1; i < node.blocks.size(); ++i) {
    if (node.blocks[i] != node.blocks[i - 1] + bs) {
      ++breaks;
    }
  }
  return static_cast<double>(breaks) /
         static_cast<double>(node.blocks.size() - 1);
}

void Filesystem::rehome_contiguous(const std::string& name) {
  GREENVIS_REQUIRE_MSG(files_.contains(name), "no such file: " + name);
  FileNode& node = files_.at(name);
  const std::uint64_t bs = params_.block_size.value();
  // Carve a contiguous run from group 0's free space.
  std::uint64_t base = group_next_[0];
  group_next_[0] += node.blocks.size() * bs;
  GREENVIS_ENSURE(group_next_[0] <= device_.capacity().value());
  for (auto& dev : node.blocks) {
    dev = base;
    base += bs;
  }
  // Metadata becomes contiguous with the data (extent-mapped after rewrite).
  std::uint64_t meta_base = group_next_[0];
  group_next_[0] += node.meta_blocks.size() * bs;
  for (auto& dev : node.meta_blocks) {
    dev = meta_base;
    meta_base += bs;
  }
}

}  // namespace greenvis::storage

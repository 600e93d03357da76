// Extent filesystem with an ext3-style journal.
//
// This is the substrate under the paper's I/O stages. It provides:
//   * named files whose payload bytes are really stored (pipelines verify
//     data integrity end to end) or synthetically generated for multi-GB
//     benchmark files;
//   * block allocation with two policies — contiguous (fresh filesystem) and
//     aged (blocks scattered round-robin across block groups, modeling the
//     fragmented 500 GB disk of the testbed);
//   * buffered and O_SYNC write modes; buffered and direct (no readahead)
//     read modes;
//   * fsync with ordered-journal semantics: flush file data, write-barrier,
//     journal descriptor write, barrier, commit record (which pays a missed
//     rotation — the reason small sync writes run at ~100 KB/s on the
//     testbed, and hence why the paper's write stage takes 30% of the run);
//   * the sync + drop_caches discipline of Sec. IV-C.
//
// All operations advance the shared virtual clock.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/storage/block_device.hpp"
#include "src/storage/page_cache.hpp"
#include "src/trace/clock.hpp"

namespace greenvis::storage {

enum class AllocationPolicy {
  kContiguous,  // fresh filesystem: files are laid out sequentially
  kAged,        // aged filesystem: blocks scatter across block groups
};

enum class WriteMode {
  kBuffered,  // dirty the page cache, defer media writes
  kSync,      // O_SYNC: write-through with a journal commit per write
};

enum class ReadMode {
  kBuffered,  // page cache + readahead
  kDirect,    // O_DIRECT: bypasses the page cache entirely, no readahead
};

struct FsParams {
  util::Bytes block_size{util::kibibytes(4)};
  AllocationPolicy allocation{AllocationPolicy::kContiguous};
  /// Aged policy: number of block groups the allocator round-robins across.
  std::size_t aged_scatter_groups{4};
  /// Fraction of the device the block groups span (the contiguous
  /// preallocation region follows, in the mid-disk zones).
  double aged_region_fraction{0.6};
  /// Journal placement (fraction of capacity) and size.
  double journal_position_fraction{0.85};
  util::Bytes journal_size{util::mebibytes(128)};
  /// Bytes per journal descriptor+metadata write.
  util::Bytes journal_record{util::kibibytes(8)};
  /// Host-side delay between the descriptor write completing and the commit
  /// record being issued (interrupt + CPU path). It exceeds the drive's
  /// streaming window, so the commit pays a missed rotation — the dominant
  /// cost of a barrier on a spinning disk.
  Seconds journal_commit_gap{util::microseconds(500.0)};
  /// One cold metadata (indirect-pointer) block read per this many data
  /// blocks when reading a file whose metadata is not cached (ext3: a 4 KiB
  /// indirect block holds 1024 pointers).
  std::size_t metadata_stride_blocks{1024};
  /// Kernel entry + bookkeeping per read/write call (2012-era kernel).
  Seconds syscall_overhead{util::microseconds(110.0)};
  /// Per-file cap on really-stored payload; larger files must be synthetic.
  util::Bytes max_real_content{util::mebibytes(256)};
  PageCacheParams cache{};
};

struct FsCounters {
  std::uint64_t syscalls{0};
  std::uint64_t journal_commits{0};
  std::uint64_t metadata_block_reads{0};
  util::Bytes logical_bytes_written{0};
  util::Bytes logical_bytes_read{0};
};

/// Contiguous run of device blocks belonging to a file.
struct Extent {
  std::uint64_t device_offset{0};
  std::uint64_t length{0};  // bytes
};

class Filesystem {
 public:
  using Fd = int;

  Filesystem(BlockDevice& device, trace::VirtualClock& clock,
             const FsParams& params = {});

  /// Create a new empty file (fails if it exists). Returns an open handle
  /// positioned at offset 0. `force_contiguous` overrides the filesystem's
  /// allocation policy for this file (a large preallocated benchmark file
  /// gets contiguous extents even on an aged filesystem).
  Fd create(const std::string& name, bool force_contiguous = false);
  /// Open an existing file at offset 0.
  Fd open(const std::string& name);
  void close(Fd fd);

  [[nodiscard]] bool exists(const std::string& name) const;
  void remove(const std::string& name);
  [[nodiscard]] util::Bytes file_size(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> list_files() const;

  /// Append real payload at the cursor.
  void write(Fd fd, std::span<const std::uint8_t> data, WriteMode mode);
  /// Append `length` synthetic bytes (content derivable from file id +
  /// offset; nothing stored). A file is either real or synthetic.
  void write_synthetic(Fd fd, util::Bytes length, WriteMode mode);

  /// Read from the cursor into `out`; returns bytes read (short at EOF).
  std::uint64_t read(Fd fd, std::span<std::uint8_t> out, ReadMode mode);
  /// Positional read.
  std::uint64_t pread(Fd fd, std::span<std::uint8_t> out, std::uint64_t offset,
                      ReadMode mode);
  /// Timing-only positional read (no payload copy). Returns bytes "read".
  std::uint64_t pread_timed(Fd fd, std::uint64_t offset, std::uint64_t length,
                            ReadMode mode);
  /// Mark a logical range dirty without changing its payload — models an
  /// in-place rewrite (used by the layout reorganizer).
  void mark_dirty(const std::string& name, std::uint64_t offset,
                  std::uint64_t length);

  void seek_to(Fd fd, std::uint64_t offset);
  [[nodiscard]] std::uint64_t tell(Fd fd) const;

  /// Flush the file's dirty data and commit the journal (ordered mode).
  void fsync(Fd fd);
  /// sync(2): flush everything and commit.
  void sync_all();
  /// The paper's between-phases discipline: sync, then drop clean pages.
  void drop_caches();

  /// The synthetic byte at (file opened as fd, offset). Deterministic.
  [[nodiscard]] static std::uint8_t synthetic_byte(std::uint64_t file_id,
                                                   std::uint64_t offset);

  /// Physical layout of a file (coalesced, in logical order). Used by the
  /// data-reorganization experiment of Sec. V-D.
  [[nodiscard]] std::vector<Extent> extents(const std::string& name) const;
  /// Fraction of logically-adjacent block pairs that are physically
  /// discontiguous (0 = perfectly laid out).
  [[nodiscard]] double fragmentation(const std::string& name) const;

  /// Bytes left in the contiguous-preallocation region (between the block
  /// groups and the journal): how far `force_contiguous` files may grow.
  [[nodiscard]] util::Bytes contiguous_space() const;

  [[nodiscard]] BlockDevice& device() { return device_; }
  [[nodiscard]] PageCache& cache() { return cache_; }
  [[nodiscard]] const FsCounters& counters() const { return counters_; }
  [[nodiscard]] const FsParams& params() const { return params_; }
  [[nodiscard]] trace::VirtualClock& clock() { return clock_; }

  /// Re-home an existing file onto freshly allocated *contiguous* blocks.
  /// Payload is preserved; only the physical layout (and thus future read
  /// cost) changes. The I/O cost of the move itself is NOT charged — use
  /// layout::Reorganizer to model the cost of reorganization online.
  void rehome_contiguous(const std::string& name);

 private:
  struct FileNode {
    std::uint64_t id{0};
    std::uint64_t size{0};
    std::vector<std::uint64_t> blocks;       // device offset per block
    std::vector<std::uint64_t> meta_blocks;  // indirect-pointer blocks
    std::vector<std::uint8_t> content;       // empty when synthetic
    bool synthetic{false};
    bool contiguous{false};  // allocation-policy override
  };
  struct OpenFile {
    std::string name;
    std::uint64_t cursor{0};
  };

  [[nodiscard]] FileNode& node_for(Fd fd);
  [[nodiscard]] const FileNode& node_for(Fd fd) const;
  /// Allocate one data block (and a metadata block every stride).
  std::uint64_t allocate_block(FileNode& node);
  /// Device offsets bounding the contiguous-preallocation region.
  [[nodiscard]] std::uint64_t contiguous_begin() const;
  [[nodiscard]] std::uint64_t contiguous_end() const;
  /// Ensure the file has blocks covering [0, size).
  void grow_to(FileNode& node, std::uint64_t size);
  void charge_syscall();
  /// A batch that throws DeviceError has still been serviced and logged:
  /// move the clock to its last completion, so the next request starts
  /// after the failed one. The entry points that issue device requests
  /// call this before the error leaves the filesystem.
  void settle_failed_batch();
  /// Journal commit: descriptor write, barrier, commit record, barrier.
  void journal_commit();
  /// Flush the file's dirty pages + barrier (no journal).
  void flush_file_data(const FileNode& node);
  /// Read [offset, offset+length) of `node` through the cache, including
  /// cold metadata fetches. Payload copy into `out` if non-empty.
  std::uint64_t read_internal(FileNode& node, std::span<std::uint8_t> out,
                              std::uint64_t offset, std::uint64_t length,
                              ReadMode mode);
  void do_write(Fd fd, std::span<const std::uint8_t> data,
                std::uint64_t synthetic_len, std::uint64_t offset,
                WriteMode mode);

  BlockDevice& device_;
  trace::VirtualClock& clock_;
  FsParams params_;
  AsyncBlockDevice queue_;  // must precede cache_, which issues through it
  PageCache cache_;
  std::map<std::string, FileNode> files_;
  std::map<Fd, OpenFile> open_files_;
  Fd next_fd_{3};
  std::uint64_t next_file_id_{1};
  std::vector<std::uint64_t> group_next_;  // next free offset per block group
  std::uint64_t contig_next_{0};           // contiguous-preallocation region
  std::uint64_t journal_head_{0};          // offset within journal region
  FsCounters counters_;
};

}  // namespace greenvis::storage

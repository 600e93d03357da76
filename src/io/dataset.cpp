#include "src/io/dataset.hpp"

#include "src/io/catalog.hpp"

#include <algorithm>
#include <cstring>

#include "src/util/checksum.hpp"
#include "src/util/error.hpp"

namespace greenvis::io {

namespace {

// "GVE-HEA2": frames carry util::wide_checksum64; "GVE-HEAT" frames carried
// FNV-1a and now fail on the magic.
constexpr std::uint64_t kMagic = 0x475645'48454132ULL;
constexpr std::size_t kHeaderBytes = 32;

void put_u64(std::uint8_t* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint64_t get_u64(const std::uint8_t* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(src[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::string step_file_name(const DatasetConfig& config, int step) {
  return config.basename + "_t" + std::to_string(step) + ".bin";
}

void TimestepWriter::write_step(int step,
                                std::span<const std::uint8_t> payload) {
  GREENVIS_REQUIRE(!payload.empty());
  Filesystem& fs = *fs_;
  const std::string name = step_file_name(config_, step);
  GREENVIS_REQUIRE_MSG(!fs.exists(name), "step already written: " + name);

  // Frame: header + payload, emitted in durable chunks. The header and the
  // catalog share one checksum.
  const std::uint64_t checksum = util::wide_checksum64(payload);
  std::vector<std::uint8_t> framed(kHeaderBytes + payload.size());
  put_u64(framed.data(), kMagic);
  put_u64(framed.data() + 8, static_cast<std::uint64_t>(step));
  put_u64(framed.data() + 16, payload.size());
  put_u64(framed.data() + 24, checksum);
  std::copy(payload.begin(), payload.end(), framed.begin() + kHeaderBytes);

  const Filesystem::Fd fd = fs.create(name);
  const std::uint64_t chunk = config_.chunk_size.value();
  for (std::uint64_t off = 0; off < framed.size(); off += chunk) {
    const std::uint64_t n =
        std::min<std::uint64_t>(chunk, framed.size() - off);
    fs.clock().advance(config_.chunk_processing);
    fs.write(fd,
             std::span<const std::uint8_t>{framed.data() + off,
                                           static_cast<std::size_t>(n)},
             config_.write_mode);
  }
  if (config_.write_mode == storage::WriteMode::kBuffered) {
    fs.fsync(fd);
  }
  fs.close(fd);
  ++steps_written_;
  if (catalog_ == nullptr) {
    catalog_ = std::make_shared<DatasetCatalog>();
  }
  catalog_->record(step, payload.size(), checksum);
}

const DatasetCatalog& TimestepWriter::catalog() const {
  static const DatasetCatalog kEmpty;
  return catalog_ == nullptr ? kEmpty : *catalog_;
}

bool TimestepReader::has_step(int step) const {
  return fs_->exists(step_file_name(config_, step));
}

std::vector<std::uint8_t> TimestepReader::read_step(int step) {
  Filesystem& fs = *fs_;
  const std::string name = step_file_name(config_, step);
  GREENVIS_REQUIRE_MSG(fs.exists(name), "no such step file: " + name);
  const std::uint64_t file_size = fs.file_size(name).value();
  GREENVIS_REQUIRE_MSG(file_size >= kHeaderBytes, "truncated step file");

  const Filesystem::Fd fd = fs.open(name);
  std::vector<std::uint8_t> framed(file_size);
  const std::uint64_t record = config_.read_record.value();
  std::uint64_t off = 0;
  while (off < file_size) {
    const std::uint64_t want = std::min<std::uint64_t>(record, file_size - off);
    const std::uint64_t got = fs.pread(
        fd,
        std::span<std::uint8_t>{framed.data() + off,
                                static_cast<std::size_t>(want)},
        off, config_.read_mode);
    GREENVIS_ENSURE(got == want);
    off += got;
    fs.clock().advance(config_.record_processing);
  }
  fs.close(fd);

  GREENVIS_REQUIRE_MSG(get_u64(framed.data()) == kMagic,
                       "bad magic in " + name);
  GREENVIS_REQUIRE_MSG(
      get_u64(framed.data() + 8) == static_cast<std::uint64_t>(step),
      "step index mismatch in " + name);
  const std::uint64_t payload_size = get_u64(framed.data() + 16);
  GREENVIS_REQUIRE_MSG(kHeaderBytes + payload_size == file_size,
                       "size mismatch in " + name);
  std::vector<std::uint8_t> payload(
      framed.begin() + kHeaderBytes,
      framed.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes + payload_size));
  GREENVIS_REQUIRE_MSG(
      util::wide_checksum64(payload) == get_u64(framed.data() + 24),
      "checksum mismatch in " + name);
  ++steps_read_;
  return payload;
}

}  // namespace greenvis::io

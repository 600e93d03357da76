#include "src/io/catalog.hpp"

#include <sstream>

#include "src/util/error.hpp"

namespace greenvis::io {

void DatasetCatalog::record(int step, std::uint64_t payload_bytes,
                            std::uint64_t checksum) {
  GREENVIS_REQUIRE_MSG(!entries_.contains(step),
                       "step already cataloged: " + std::to_string(step));
  entries_[step] = CatalogEntry{step, payload_bytes, checksum};
}

std::optional<CatalogEntry> DatasetCatalog::entry(int step) const {
  const auto it = entries_.find(step);
  return it == entries_.end() ? std::nullopt
                              : std::optional<CatalogEntry>{it->second};
}

std::vector<int> DatasetCatalog::steps() const {
  std::vector<int> out;
  out.reserve(entries_.size());
  for (const auto& [step, e] : entries_) {
    out.push_back(step);
  }
  return out;
}

std::uint64_t DatasetCatalog::total_payload_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [step, e] : entries_) {
    sum += e.payload_bytes;
  }
  return sum;
}

std::string DatasetCatalog::serialize() const {
  std::ostringstream os;
  os << "greenvis-catalog 2\n";
  os << std::hex;
  for (const auto& [step, e] : entries_) {
    os << std::dec << "step " << e.step << " bytes " << e.payload_bytes
       << " sum " << std::hex << e.checksum << "\n";
  }
  return os.str();
}

DatasetCatalog DatasetCatalog::parse(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string header, version;
  is >> header >> version;
  GREENVIS_REQUIRE_MSG(header == "greenvis-catalog" && version == "2",
                       "not a greenvis catalog");
  DatasetCatalog catalog;
  std::string kw_step, kw_bytes, kw_sum;
  int step = 0;
  std::uint64_t bytes = 0, checksum = 0;
  while (is >> kw_step >> step >> kw_bytes >> bytes >> kw_sum >>
         std::hex >> checksum >> std::dec) {
    GREENVIS_REQUIRE_MSG(
        kw_step == "step" && kw_bytes == "bytes" && kw_sum == "sum",
        "malformed catalog line");
    catalog.record(step, bytes, checksum);
  }
  GREENVIS_REQUIRE_MSG(is.eof(), "trailing garbage in catalog");
  return catalog;
}

void DatasetCatalog::save(Filesystem& fs, const DatasetConfig& config) const {
  const std::string name = file_name(config);
  if (fs.exists(name)) {
    fs.remove(name);
  }
  const std::string text = serialize();
  const auto fd = fs.create(name);
  fs.write(fd,
           std::span<const std::uint8_t>{
               reinterpret_cast<const std::uint8_t*>(text.data()),
               text.size()},
           storage::WriteMode::kBuffered);
  fs.fsync(fd);
  fs.close(fd);
}

DatasetCatalog DatasetCatalog::load(Filesystem& fs,
                                    const DatasetConfig& config) {
  const std::string name = file_name(config);
  GREENVIS_REQUIRE_MSG(fs.exists(name), "no catalog: " + name);
  const std::uint64_t size = fs.file_size(name).value();
  const auto fd = fs.open(name);
  std::vector<std::uint8_t> raw(size);
  fs.pread(fd, raw, 0, storage::ReadMode::kBuffered);
  fs.close(fd);
  return parse(std::string_view{reinterpret_cast<const char*>(raw.data()),
                                raw.size()});
}

}  // namespace greenvis::io

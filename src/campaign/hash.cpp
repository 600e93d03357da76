#include "src/campaign/hash.hpp"

#include <bit>
#include <sstream>

#include "src/util/checksum.hpp"

namespace greenvis::campaign {

namespace {

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(v >> shift) & 0xF]);
  }
}

void append_double_bits(std::string& out, double v) {
  append_hex64(out, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

std::string canonical_text(const CampaignConfig& config) {
  const CampaignConfig c = canonicalize(config);
  std::ostringstream os;
  os << "greenvis.campaign.v1"
     << "|pipeline=" << core::pipeline_kind_name(c.kind)
     << "|iters=" << c.iterations << "|period=" << c.io_period
     << "|grid=" << c.grid << "|sweeps=" << c.sweeps << "|frame=" << c.frame
     << "|codec=" << codec::kind_name(c.codec_kind);
  std::string text = os.str();
  text += "|tol=";
  append_double_bits(text, c.codec_tolerance);
  text += "|chunk=" + std::to_string(c.chunk_edge);
  text += "|device=";
  text += core::storage_device_name(c.device);
  text += "|freq=";
  append_double_bits(text, c.frequency_ghz);
  text += "|iofreq=";
  append_double_bits(text, c.io_frequency_ghz);
  text += "|cap=";
  append_double_bits(text, c.package_cap_w);
  text += "|stage=" + std::to_string(c.stage_buffers);
  // Axes added after v1 append as conditional suffixes: a config at their
  // defaults hashes exactly as it did before the axis existed, so every
  // journaled key and cached result stays valid.
  if (c.viewers > 0) {
    text += "|viewers=" + std::to_string(c.viewers);
  }
  return text;
}

std::uint64_t config_hash(const CampaignConfig& config) {
  const std::string text = canonical_text(config);
  return util::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string key_from_hash(std::uint64_t hash) {
  std::string key;
  key.reserve(16);
  append_hex64(key, hash);
  return key;
}

std::string config_key(const CampaignConfig& config) {
  return key_from_hash(config_hash(config));
}

}  // namespace greenvis::campaign

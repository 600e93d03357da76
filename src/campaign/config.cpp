#include "src/campaign/config.hpp"

#include <sstream>

#include "src/util/error.hpp"

namespace greenvis::campaign {

namespace {

constexpr std::size_t kDefaultSweeps = 40;   // heat::HeatProblem default
constexpr std::size_t kDefaultFrame = 512;   // vis::VisConfig default
constexpr std::size_t kDefaultChunk = 32;    // codec::CodecConfig default
constexpr std::size_t kDefaultStageBuffers = 2;

}  // namespace

CampaignConfig canonicalize(const CampaignConfig& config) {
  GREENVIS_REQUIRE(config.iterations > 0 && config.io_period > 0);
  GREENVIS_REQUIRE(config.grid >= 4);
  GREENVIS_REQUIRE(config.frequency_ghz > 0.0);
  CampaignConfig c = config;
  if (c.sweeps == 0) {
    c.sweeps = kDefaultSweeps;
  }
  if (c.frame == 0) {
    c.frame = kDefaultFrame;
  }
  if (c.viewers < 0) {
    c.viewers = 0;
  }
  if (c.viewers > 0) {
    // A serve session is in-situ style with its own render/encode/deliver
    // path: the pipeline-kind knob is never read, so all serve configs
    // canonicalize onto the in-situ representative.
    c.kind = core::PipelineKind::kInSitu;
  }
  if (c.kind == core::PipelineKind::kInSitu) {
    // In-situ never touches storage: neither the snapshot codec nor the
    // I/O-phase clock can influence any result.
    c.codec_kind = codec::Kind::kRaw;
    c.io_frequency_ghz = 0.0;
  }
  if (c.codec_kind == codec::Kind::kRaw) {
    c.codec_tolerance = 0.0;  // identity codec: no quantization, no chunking
    c.chunk_edge = 0;
  } else {
    if (c.codec_kind == codec::Kind::kRle) {
      c.codec_tolerance = 0.0;  // rle is lossless; tolerance is never read
    }
    if (c.chunk_edge == 0) {
      c.chunk_edge = kDefaultChunk;
    }
  }
  if (c.io_frequency_ghz == c.frequency_ghz) {
    c.io_frequency_ghz = 0.0;  // 0 already means "same as frequency_ghz"
  }
  if (c.kind == core::PipelineKind::kPostProcessingAsync) {
    if (c.stage_buffers == 0) {
      c.stage_buffers = kDefaultStageBuffers;
    }
  } else {
    c.stage_buffers = 0;  // only the async pipeline reads the ring size
  }
  return c;
}

MaterializedConfig materialize(const CampaignConfig& config,
                               std::size_t host_threads) {
  const CampaignConfig c = canonicalize(config);
  MaterializedConfig m;
  m.kind = c.kind;
  m.workload.name = describe(c);
  m.workload.iterations = c.iterations;
  m.workload.io_period = c.io_period;
  m.workload.problem.nx = c.grid;
  m.workload.problem.ny = c.grid;
  m.workload.problem.executed_sweeps = c.sweeps;
  m.workload.vis.width = c.frame;
  m.workload.vis.height = c.frame;
  m.workload.snapshot_codec.kind = c.codec_kind;
  if (c.codec_kind == codec::Kind::kDelta) {
    m.workload.snapshot_codec.tolerance = c.codec_tolerance;
  }
  if (c.chunk_edge != 0) {
    m.workload.snapshot_codec.chunk_edge = c.chunk_edge;
  }
  m.testbed.frequency_ghz = c.frequency_ghz;
  m.testbed.io_frequency_ghz = c.io_frequency_ghz;
  m.testbed.device = c.device;
  m.testbed.package_cap = util::Watts{c.package_cap_w};
  m.viewers = c.viewers;
  m.options.host_threads = host_threads;
  m.options.frame_digests = true;  // ConfigResult::image_digest reads them
  if (c.stage_buffers != 0) {
    m.options.stage_buffers = c.stage_buffers;
  }
  return m;
}

std::vector<CampaignConfig> CampaignSpec::expand() const {
  const CampaignConfig base{};
  // An empty axis contributes the base default; the pipeline axis iterates
  // innermost so a config and its pipeline-switch twin are adjacent.
  const auto pipes = pipelines.empty()
                         ? std::vector<core::PipelineKind>{base.kind}
                         : pipelines;
  const auto iters =
      iterations.empty() ? std::vector<int>{base.iterations} : iterations;
  const auto periods =
      io_periods.empty() ? std::vector<int>{base.io_period} : io_periods;
  const auto gs = grids.empty() ? std::vector<std::size_t>{base.grid} : grids;
  const auto cks =
      codecs.empty() ? std::vector<codec::Kind>{base.codec_kind} : codecs;
  const auto tols = tolerances.empty()
                        ? std::vector<double>{base.codec_tolerance}
                        : tolerances;
  const auto devs = devices.empty()
                        ? std::vector<core::StorageDeviceKind>{base.device}
                        : devices;
  const auto freqs = frequencies.empty()
                         ? std::vector<double>{base.frequency_ghz}
                         : frequencies;
  const auto io_freqs = io_frequencies.empty()
                            ? std::vector<double>{base.io_frequency_ghz}
                            : io_frequencies;
  const auto caps = package_caps.empty()
                        ? std::vector<double>{base.package_cap_w}
                        : package_caps;

  std::vector<CampaignConfig> out;
  out.reserve(pipes.size() * iters.size() * periods.size() * gs.size() *
              cks.size() * tols.size() * devs.size() * freqs.size() *
              io_freqs.size() * caps.size());
  for (double cap : caps) {
    for (double io_f : io_freqs) {
      for (double f : freqs) {
        for (core::StorageDeviceKind dev : devs) {
          for (double tol : tols) {
            for (codec::Kind ck : cks) {
              for (std::size_t g : gs) {
                for (int period : periods) {
                  for (int it : iters) {
                    for (core::PipelineKind kind : pipes) {
                      CampaignConfig c = base;
                      c.kind = kind;
                      c.iterations = it;
                      c.io_period = period;
                      c.grid = g;
                      c.codec_kind = ck;
                      c.codec_tolerance = tol;
                      c.device = dev;
                      c.frequency_ghz = f;
                      c.io_frequency_ghz = io_f;
                      c.package_cap_w = cap;
                      out.push_back(c);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The serving axis multiplies the base product in a post-pass
  // (outermost), so sweeps that leave it empty produce the exact job list
  // they always did.
  if (!viewer_counts.empty()) {
    std::vector<CampaignConfig> expanded;
    expanded.reserve(out.size() * viewer_counts.size());
    for (int viewer_count : viewer_counts) {
      for (CampaignConfig c : out) {
        c.viewers = viewer_count;
        expanded.push_back(c);
      }
    }
    out = std::move(expanded);
  }
  return out;
}

std::string describe(const CampaignConfig& config) {
  const CampaignConfig c = canonicalize(config);
  std::ostringstream os;
  os << core::pipeline_kind_name(c.kind) << " grid=" << c.grid
     << " iters=" << c.iterations << " period=" << c.io_period
     << " codec=" << codec::kind_name(c.codec_kind)
     << " dev=" << core::storage_device_name(c.device)
     << " f=" << c.frequency_ghz;
  if (c.io_frequency_ghz > 0.0) {
    os << " iof=" << c.io_frequency_ghz;
  }
  if (c.package_cap_w > 0.0) {
    os << " cap=" << c.package_cap_w;
  }
  if (c.viewers > 0) {
    os << " viewers=" << c.viewers;
  }
  return os.str();
}

}  // namespace greenvis::campaign

#include "src/campaign/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iomanip>
#include <mutex>
#include <span>
#include <unordered_set>

#include "src/campaign/hash.hpp"
#include "src/obs/tracer.hpp"
#include "src/serve/session.hpp"
#include "src/serve/viewer.hpp"
#include "src/util/checksum.hpp"
#include "src/util/error.hpp"
#include "src/util/sharded.hpp"
#include "src/util/thread_pool.hpp"

namespace greenvis::campaign {

namespace {

std::uint64_t digest_bytes(std::span<const std::uint8_t> bytes,
                           std::uint64_t seed) {
  return util::fnv1a64(bytes, seed);
}

std::uint64_t digest_u64s(std::span<const std::uint64_t> values) {
  return digest_bytes(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(values.data()),
          values.size() * sizeof(std::uint64_t)),
      0xCBF29CE484222325ULL);
}

}  // namespace

ConfigResult result_from_metrics(const std::string& key,
                                 const core::PipelineMetrics& metrics) {
  ConfigResult r;
  r.key = key;
  r.duration_s = metrics.duration.value();
  r.energy_j = metrics.energy.value();
  r.average_power_w = metrics.average_power.value();
  r.peak_power_w = metrics.peak_power.value();
  r.efficiency = metrics.efficiency;
  GREENVIS_REQUIRE_MSG(metrics.output.image_digests.size() ==
                           static_cast<std::size_t>(
                               metrics.output.visualized_steps),
                       "campaign runs need PipelineOptions::frame_digests");
  r.image_digest = digest_u64s(metrics.output.image_digests);
  const auto field_bytes = metrics.output.final_field.serialize();
  r.field_digest = digest_bytes(field_bytes, 0xCBF29CE484222325ULL);
  r.steps = metrics.output.steps;
  r.visualized_steps = metrics.output.visualized_steps;
  r.snapshot_bytes_written = metrics.output.snapshot_bytes_written.value();
  r.snapshot_bytes_read = metrics.output.snapshot_bytes_read.value();
  r.snapshot_bytes_raw = metrics.output.snapshot_bytes_raw.value();
  for (const obs::StageEnergy& s : metrics.attribution.stages) {
    const double j = s.total().value();
    if (s.name == core::stage::kSimulation) {
      r.energy_sim_j += j;
    } else if (s.name == core::stage::kWrite) {
      r.energy_write_j += j;
    } else if (s.name == core::stage::kRead) {
      r.energy_read_j += j;
    } else if (s.name == core::stage::kVisualization) {
      r.energy_vis_j += j;
    } else if (s.name == obs::kEnergyIdle) {
      r.energy_idle_j += j;
    } else {
      r.energy_other_j += j;
    }
  }
  r.energy_static_j = metrics.attribution.static_total().value();
  return r;
}

namespace {

/// Map a serve session onto the journal's result row: delivered-frame
/// digests stand in for the image digests, delivery bytes for snapshot
/// traffic, and the Encode/Deliver stages land in energy_other_j — the
/// journal format itself is unchanged.
ConfigResult result_from_serve(const std::string& key,
                               const CampaignConfig& config,
                               const serve::ServeReport& report) {
  ConfigResult r;
  r.key = key;
  r.duration_s = report.duration.value();
  r.energy_j = report.energy.value();
  r.average_power_w = report.average_power.value();
  r.peak_power_w = report.peak_power.value();
  const double cells = static_cast<double>((config.grid - 2) *
                                           (config.grid - 2));
  r.efficiency =
      cells * static_cast<double>(config.iterations) / r.energy_j;
  std::vector<std::uint64_t> digests;
  digests.reserve(report.deliveries.size());
  for (const serve::Delivery& d : report.deliveries) {
    digests.push_back(d.digest);
  }
  r.image_digest = digest_u64s(digests);
  r.field_digest = report.final_field_digest;
  r.steps = config.iterations;
  r.visualized_steps = report.frame_steps;
  std::uint64_t bytes = 0;
  for (const serve::ViewerEnergy& v : report.viewers) {
    bytes += v.bytes;
  }
  r.snapshot_bytes_written = bytes;
  r.snapshot_bytes_raw = bytes;
  for (const obs::StageEnergy& s : report.attribution.stages) {
    const double j = s.total().value();
    if (s.name == core::stage::kSimulation) {
      r.energy_sim_j += j;
    } else if (s.name == core::stage::kVisualization) {
      r.energy_vis_j += j;
    } else if (s.name == obs::kEnergyIdle) {
      r.energy_idle_j += j;
    } else {
      r.energy_other_j += j;
    }
  }
  r.energy_static_j = report.attribution.static_total().value();
  return r;
}

}  // namespace

CampaignReport CampaignEngine::run(const std::vector<CampaignConfig>& configs,
                                   const CampaignOptions& options) const {
  obs::ScopedSpan span("campaign.run", obs::kCatCampaign);
  CampaignReport report;
  report.configs.reserve(configs.size());
  report.keys.reserve(configs.size());

  // Canonicalize + hash every config; first occurrence of a key owns it.
  std::unordered_set<std::string> seen;
  std::vector<std::size_t> misses;  // indices of fresh work, in config order
  for (const CampaignConfig& raw : configs) {
    const CampaignConfig c = canonicalize(raw);
    report.configs.push_back(c);
    report.keys.push_back(config_key(c));
    const std::string& key = report.keys.back();
    if (!seen.insert(key).second) {
      ++report.duplicates;
      continue;
    }
    ++report.unique_configs;
    if (cache_.find(key) != nullptr) {
      ++report.cache_hits;
    } else {
      misses.push_back(report.configs.size() - 1);
    }
  }
  if (obs::enabled()) {
    static obs::Counter& hits =
        obs::Registry::global().counter("campaign.cache.hits");
    static obs::Counter& miss_count =
        obs::Registry::global().counter("campaign.cache.misses");
    hits.add(report.cache_hits);
    miss_count.add(misses.size());
  }

  if (options.job_limit != 0 && misses.size() > options.job_limit) {
    misses.resize(options.job_limit);
    report.interrupted = true;
  }
  report.executed = misses.size();

  const auto host_begin = std::chrono::steady_clock::now();
  if (!misses.empty()) {
    // Divide the machine among the misses actually in flight.
    const core::BatchRunner sizing(options.threads);
    const std::size_t fan_out = std::min(sizing.concurrency(), misses.size());
    const std::size_t host_threads =
        sizing.host_threads_per_job(misses.size());

    std::mutex sink_mutex;
    std::exception_ptr error;
    auto run_one = [&](std::size_t slot) {
      const std::size_t i = misses[slot];
      const MaterializedConfig m =
          materialize(report.configs[i], host_threads);
      ConfigResult result;
      if (m.viewers > 0) {
        serve::ServeConfig sc;
        sc.base = m.workload;
        sc.viewers =
            serve::default_fleet(m.viewers, std::min(4, m.viewers));
        sc.host_threads = host_threads;
        const serve::ServeReport rep =
            serve::run_serve_session(sc, m.testbed);
        result = result_from_serve(report.keys[i], report.configs[i], rep);
      } else {
        const core::PipelineMetrics metrics =
            core::Experiment(m.testbed).run(m.kind, m.workload, m.options);
        result = result_from_metrics(report.keys[i], metrics);
      }
      const std::lock_guard lock(sink_mutex);
      cache_.insert(result);
      if (journal_ != nullptr) {
        *journal_ << encode_line(result) << '\n';
        journal_->flush();
      }
    };

    if (fan_out <= 1) {
      for (std::size_t slot = 0; slot < misses.size(); ++slot) {
        run_one(slot);
      }
    } else {
      util::ThreadPool pool(fan_out);
      util::ShardedOptions sharded;
      sharded.shards = options.shards;
      sharded.span_name = "campaign.shard";
      sharded.steal_counter =
          obs::enabled()
              ? &obs::Registry::global().counter("campaign.shard.steals")
              : nullptr;
      const util::ShardedRunStats stats = util::run_sharded(
          pool, misses.size(),
          [&](std::size_t slot) {
            try {
              run_one(slot);
            } catch (...) {
              const std::lock_guard lock(sink_mutex);
              if (!error) {
                error = std::current_exception();
              }
            }
          },
          sharded);
      report.steals = stats.steals;
      if (error) {
        std::rethrow_exception(error);
      }
    }
  }
  report.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_begin)
          .count();
  if (obs::enabled()) {
    static obs::Gauge& rate =
        obs::Registry::global().gauge("campaign.configs_per_s");
    rate.set(report.configs_per_second());
  }

  report.results.resize(report.configs.size());
  report.completed.assign(report.configs.size(), 0);
  for (std::size_t i = 0; i < report.configs.size(); ++i) {
    if (const ConfigResult* r = cache_.find(report.keys[i])) {
      report.results[i] = *r;
      report.completed[i] = 1;
    }
  }
  GREENVIS_ENSURE(report.interrupted ||
                  std::all_of(report.completed.begin(), report.completed.end(),
                              [](char c) { return c != 0; }));
  return report;
}

namespace {

void json_double(std::ostream& os, double v) {
  os << std::setprecision(17) << v;
}

void json_hex(std::ostream& os, std::uint64_t v) {
  os << '"' << key_from_hash(v) << '"';
}

}  // namespace

void write_campaign_json(std::ostream& os, const CampaignReport& report) {
  GREENVIS_REQUIRE_MSG(!report.interrupted,
                       "cannot render an interrupted campaign");
  os << "{\n  \"schema\": \"greenvis.campaign.v1\",\n  \"configs\": [";
  for (std::size_t i = 0; i < report.configs.size(); ++i) {
    const CampaignConfig& c = report.configs[i];
    const ConfigResult& r = report.results[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"key\": \"" << report.keys[i] << "\", \"pipeline\": \""
       << core::pipeline_kind_name(c.kind) << "\", \"grid\": " << c.grid
       << ", \"iterations\": " << c.iterations
       << ", \"io_period\": " << c.io_period << ", \"sweeps\": " << c.sweeps
       << ", \"frame\": " << c.frame << ", \"codec\": \""
       << codec::kind_name(c.codec_kind) << "\", \"tolerance\": ";
    json_double(os, c.codec_tolerance);
    os << ", \"chunk_edge\": " << c.chunk_edge << ", \"device\": \""
       << core::storage_device_name(c.device) << "\", \"frequency_ghz\": ";
    json_double(os, c.frequency_ghz);
    os << ", \"io_frequency_ghz\": ";
    json_double(os, c.io_frequency_ghz);
    os << ", \"package_cap_w\": ";
    json_double(os, c.package_cap_w);
    // io_sched/io_queue_depth: v1 constants; ROADMAP item 7 drops them.
    os << ", \"stage_buffers\": " << c.stage_buffers
       << ", \"io_sched\": \"device\", \"io_queue_depth\": 0"
       << ", \"viewers\": " << c.viewers << ",\n     \"duration_s\": ";
    json_double(os, r.duration_s);
    os << ", \"energy_j\": ";
    json_double(os, r.energy_j);
    os << ", \"average_power_w\": ";
    json_double(os, r.average_power_w);
    os << ", \"peak_power_w\": ";
    json_double(os, r.peak_power_w);
    os << ", \"efficiency\": ";
    json_double(os, r.efficiency);
    os << ", \"image_digest\": ";
    json_hex(os, r.image_digest);
    os << ", \"field_digest\": ";
    json_hex(os, r.field_digest);
    os << ", \"steps\": " << r.steps
       << ", \"visualized_steps\": " << r.visualized_steps
       << ", \"snapshot_bytes_written\": " << r.snapshot_bytes_written
       << ", \"snapshot_bytes_read\": " << r.snapshot_bytes_read
       << ", \"snapshot_bytes_raw\": " << r.snapshot_bytes_raw
       << ",\n     \"energy_sim_j\": ";
    json_double(os, r.energy_sim_j);
    os << ", \"energy_write_j\": ";
    json_double(os, r.energy_write_j);
    os << ", \"energy_read_j\": ";
    json_double(os, r.energy_read_j);
    os << ", \"energy_vis_j\": ";
    json_double(os, r.energy_vis_j);
    os << ", \"energy_idle_j\": ";
    json_double(os, r.energy_idle_j);
    os << ", \"energy_other_j\": ";
    json_double(os, r.energy_other_j);
    os << ", \"energy_static_j\": ";
    json_double(os, r.energy_static_j);
    os << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace greenvis::campaign

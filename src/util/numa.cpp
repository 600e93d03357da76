#include "src/util/numa.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "src/util/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace greenvis::util::numa {
namespace {

/// Parse a sysfs cpulist like "0-3,8-11" into cpu ids.
std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const char c = list[pos];
    if (c < '0' || c > '9') {
      ++pos;
      continue;
    }
    std::size_t next = pos;
    const int lo = std::stoi(list.substr(pos), &next);
    pos += next;
    int hi = lo;
    if (pos < list.size() && list[pos] == '-') {
      ++pos;
      hi = std::stoi(list.substr(pos), &next);
      pos += next;
    }
    for (int cpu = lo; cpu <= hi; ++cpu) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

Topology probe() {
  Topology topo;
#if defined(__linux__)
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::pair<int, std::vector<int>>> nodes;
  for (const auto& entry : fs::directory_iterator("/sys/devices/system/node",
                                                  ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("node", 0) != 0 || name.size() <= 4) {
      continue;
    }
    const std::string digits = name.substr(4);
    if (digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in(entry.path() / "cpulist");
    std::string list;
    if (!in || !std::getline(in, list)) {
      continue;
    }
    std::vector<int> cpus = parse_cpulist(list);
    if (!cpus.empty()) {
      nodes.emplace_back(std::stoi(digits), std::move(cpus));
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, cpus] : nodes) {
    topo.node_cpus.push_back(std::move(cpus));
  }
#endif
  if (topo.node_cpus.empty()) {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    std::vector<int> all(hw);
    for (unsigned i = 0; i < hw; ++i) {
      all[i] = static_cast<int>(i);
    }
    topo.node_cpus.push_back(std::move(all));
  }
  return topo;
}

}  // namespace

const Topology& topology() {
  static const Topology topo = probe();
  return topo;
}

bool pin_to_node(std::size_t node) {
#if defined(__linux__)
  const Topology& topo = topology();
  if (topo.node_count() == 0) {
    return false;
  }
  const std::vector<int>& cpus = topo.node_cpus[node % topo.node_count()];
  cpu_set_t set;
  CPU_ZERO(&set);
  bool any = false;
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) {
      CPU_SET(static_cast<std::size_t>(cpu), &set);
      any = true;
    }
  }
  if (!any) {
    return false;
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)node;
  return false;
#endif
}

void first_touch_fill(double* data, std::size_t count, double value,
                      ThreadPool* pool) {
  // 8192 doubles = 64 KiB: each chunk spans whole pages (and whole 2 MB-page
  // fractions worth touching) so placement follows the sweep partitioning.
  constexpr std::size_t kGrain = 8192;
  constexpr std::size_t kMinParallel = std::size_t{1} << 16;
  if (pool == nullptr || pool->size() <= 1 || count < kMinParallel) {
    std::fill_n(data, count, value);
    return;
  }
  pool->parallel_for(
      0, count,
      [&](std::size_t lo, std::size_t hi) {
        std::fill(data + lo, data + hi, value);
      },
      kGrain);
}

}  // namespace greenvis::util::numa

// NUMA topology probe, worker pinning, and first-touch page placement.
//
// Linux commits anonymous pages on first write, on the node of the writing
// CPU. The pool therefore pins its workers round-robin across nodes
// (ThreadPool does this using `topology()`), and fields route their initial
// fill through `first_touch_fill` so each worker faults in the pages of the
// range it will later sweep — the same parallel_for partitioning the solvers
// use. On single-node hosts the pool pins nothing and all of this degrades
// to a plain fill.
#pragma once

#include <cstddef>
#include <vector>

namespace greenvis::util {

class ThreadPool;

namespace numa {

/// Host topology: one entry per NUMA node, each listing its online CPU ids.
/// Probed once from /sys/devices/system/node; falls back to a single node
/// holding all CPUs when sysfs is unavailable (non-Linux, containers).
struct Topology {
  std::vector<std::vector<int>> node_cpus;

  [[nodiscard]] std::size_t node_count() const { return node_cpus.size(); }
};

[[nodiscard]] const Topology& topology();

/// Pin the calling thread to every CPU of `node` (modulo node count).
/// Returns true when the affinity call succeeded; failure is benign — the
/// thread simply stays unpinned.
bool pin_to_node(std::size_t node);

/// Fill count doubles with `value`, partitioned over the pool's workers so
/// each worker first-touches the pages of its own range. Serial when the
/// pool is null/too small or the range is small; the result is identical
/// either way (every byte gets the same value).
void first_touch_fill(double* data, std::size_t count, double value,
                      ThreadPool* pool);

}  // namespace numa
}  // namespace greenvis::util

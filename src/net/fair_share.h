// Max-min fair rate allocation (progressive filling / water-filling).
//
// Every active transfer is a fluid flow crossing a set of directed links;
// each flow may also carry its own rate cap (its TCP congestion-window
// limit). The allocation gives every flow the largest rate such that no
// link is oversubscribed and no flow can be increased without decreasing
// an already-smaller flow — the standard fluid abstraction for bandwidth
// sharing among TCP connections on shaped links.
//
// Two implementations:
//   - max_min_allocation: the generic reference for arbitrary paths.
//     Allocates its working state per call; used by tests and as the
//     oracle in the randomized differential suite.
//   - StarAllocator: the hot-path specialization for the star topology,
//     where every flow crosses exactly (hub trunk, source uplink,
//     destination downlink). All working state lives in reusable scratch
//     buffers owned by the allocator, so steady-state calls perform zero
//     heap allocations and run in O(flows · bottleneck-iterations). The
//     two implementations compute identical allocations (the progressive
//     filling order and epsilon handling are the same).
#pragma once

#include <vector>

#include "common/units.h"
#include "net/types.h"

namespace vsplice::net {

struct FlowSpec {
  /// Links the flow crosses; LinkId::value indexes `link_capacity`.
  std::vector<LinkId> path;
  /// Flow's own rate ceiling (Rate::infinity() when unconstrained).
  Rate cap = Rate::infinity();
};

/// Computes the max-min fair allocation. `link_capacity[l]` is the
/// capacity of link l; flows with an empty path are limited only by their
/// cap. Zero-capacity links yield zero-rate flows.
[[nodiscard]] std::vector<Rate> max_min_allocation(
    const std::vector<FlowSpec>& flows,
    const std::vector<Rate>& link_capacity);

/// A flow on the star: the fixed path (hub trunk = link 0, uplink,
/// downlink) is implied, so only the two access-link indices and the cap
/// are carried — no per-flow path vector, no allocation.
struct StarFlowSpec {
  std::uint32_t uplink = 0;    // LinkId::value of the source's uplink
  std::uint32_t downlink = 0;  // LinkId::value of the destination's downlink
  Rate cap = Rate::infinity();
};

/// Progressive-filling allocator specialized to star paths. Reuse one
/// instance across calls: the scratch buffers grow to the high-water mark
/// of (flows, links) and are never reallocated afterwards.
class StarAllocator {
 public:
  StarAllocator() = default;
  StarAllocator(const StarAllocator&) = delete;
  StarAllocator& operator=(const StarAllocator&) = delete;

  /// Computes the max-min fair allocation for star flows; link 0 is the
  /// hub trunk every flow crosses. `out` is resized to flows.size().
  /// Results match max_min_allocation on the equivalent 3-link paths.
  void allocate(const std::vector<StarFlowSpec>& flows,
                const std::vector<Rate>& link_capacity,
                std::vector<Rate>& out);

  /// Bytes held by the scratch buffers (capacity-based; they grow to
  /// the high-water mark of (flows, links) and stay there).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(remaining_.capacity() * sizeof(double) +
                                      active_.capacity() * sizeof(std::uint32_t) +
                                      cap_.capacity() * sizeof(double) +
                                      alloc_.capacity() * sizeof(double) +
                                      fixed_.capacity() +
                                      share_.capacity() * sizeof(double));
  }

 private:
  // Scratch (sized on demand, retained across calls).
  std::vector<double> remaining_;        // per link: spare capacity
  std::vector<std::uint32_t> active_;    // per link: unfixed flows crossing
  std::vector<double> cap_;              // per flow: cap in B/s (inf = none)
  std::vector<double> alloc_;            // per flow: assigned rate
  std::vector<unsigned char> fixed_;     // per flow: frozen at alloc_
  std::vector<double> share_;            // per link: this round's share
};

}  // namespace vsplice::net

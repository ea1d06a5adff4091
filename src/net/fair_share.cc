#include "net/fair_share.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/profiler.h"

namespace vsplice::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative slack when comparing shares, to absorb floating-point noise.
constexpr double kEps = 1e-9;
}  // namespace

std::vector<Rate> max_min_allocation(
    const std::vector<FlowSpec>& flows,
    const std::vector<Rate>& link_capacity) {
  const std::size_t n = flows.size();
  const std::size_t links = link_capacity.size();

  std::vector<double> remaining(links);
  for (std::size_t l = 0; l < links; ++l) {
    const Rate c = link_capacity[l];
    require(c >= Rate::zero(), "link capacity must be non-negative");
    remaining[l] = c.is_infinite() ? kInf : c.bytes_per_second();
  }

  std::vector<std::size_t> active_on_link(links, 0);
  for (const auto& flow : flows) {
    for (LinkId l : flow.path) {
      require(l.value < links, "flow path references unknown link");
      ++active_on_link[l.value];
    }
  }

  std::vector<double> alloc(n, 0.0);
  std::vector<bool> fixed(n, false);
  std::size_t active = n;

  auto fix_flow = [&](std::size_t f, double rate) {
    alloc[f] = rate;
    fixed[f] = true;
    --active;
    for (LinkId l : flows[f].path) {
      --active_on_link[l.value];
      if (remaining[l.value] != kInf) {
        remaining[l.value] = std::max(0.0, remaining[l.value] - rate);
      }
    }
  };

  while (active > 0) {
    // Equal share offered by the currently most constrained link.
    double min_link_share = kInf;
    for (std::size_t l = 0; l < links; ++l) {
      if (active_on_link[l] == 0) continue;
      const double share =
          remaining[l] / static_cast<double>(active_on_link[l]);
      min_link_share = std::min(min_link_share, share);
    }

    // Smallest cap among still-active flows.
    double min_cap = kInf;
    for (std::size_t f = 0; f < n; ++f) {
      if (fixed[f]) continue;
      const double cap =
          flows[f].cap.is_infinite() ? kInf : flows[f].cap.bytes_per_second();
      min_cap = std::min(min_cap, cap);
    }

    const double level = std::min(min_link_share, min_cap);

    if (level == kInf) {
      // No finite constraint binds the remaining flows.
      for (std::size_t f = 0; f < n; ++f) {
        if (!fixed[f]) fix_flow(f, kInf);
      }
      break;
    }

    const double threshold = level * (1.0 + kEps) + 1e-12;

    // First settle flows whose own cap binds at (or below) this level:
    // they take less than their equal share, freeing capacity for others.
    bool fixed_by_cap = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (fixed[f]) continue;
      const double cap =
          flows[f].cap.is_infinite() ? kInf : flows[f].cap.bytes_per_second();
      if (cap <= threshold) {
        fix_flow(f, cap);
        fixed_by_cap = true;
      }
    }
    if (fixed_by_cap) continue;

    // Otherwise the level came from a bottleneck link: freeze every flow
    // crossing a link whose share equals the level.
    std::vector<bool> is_bottleneck(links, false);
    for (std::size_t l = 0; l < links; ++l) {
      if (active_on_link[l] == 0) continue;
      const double share =
          remaining[l] / static_cast<double>(active_on_link[l]);
      if (share <= threshold) is_bottleneck[l] = true;
    }
    bool fixed_any = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (fixed[f]) continue;
      const bool crosses = std::any_of(
          flows[f].path.begin(), flows[f].path.end(),
          [&](LinkId l) { return is_bottleneck[l.value]; });
      if (crosses) {
        fix_flow(f, level);
        fixed_any = true;
      }
    }
    check_invariant(fixed_any,
                    "max-min allocation made no progress; bad input?");
  }

  std::vector<Rate> result(n);
  for (std::size_t f = 0; f < n; ++f) {
    result[f] = alloc[f] == kInf ? Rate::infinity()
                                 : Rate::bytes_per_second(alloc[f]);
  }
  return result;
}

void StarAllocator::allocate(const std::vector<StarFlowSpec>& flows,
                             const std::vector<Rate>& link_capacity,
                             std::vector<Rate>& out) {
  VSPLICE_PROFILE_SCOPE("net.star_allocate");
  const std::size_t n = flows.size();
  const std::size_t links = link_capacity.size();
  require(links >= 1, "star topology needs the hub trunk (link 0)");

  remaining_.resize(links);
  for (std::size_t l = 0; l < links; ++l) {
    const Rate c = link_capacity[l];
    require(c >= Rate::zero(), "link capacity must be non-negative");
    remaining_[l] = c.is_infinite() ? kInf : c.bytes_per_second();
  }

  active_.assign(links, 0);
  cap_.resize(n);
  alloc_.assign(n, 0.0);
  fixed_.assign(n, 0);
  // Smallest cap among still-active flows. Each round's flow pass
  // carries it into the next round, so no round rescans for it.
  double min_cap = kInf;
  for (std::size_t f = 0; f < n; ++f) {
    const StarFlowSpec& flow = flows[f];
    require(flow.uplink < links && flow.downlink < links,
            "flow path references unknown link");
    ++active_[0];
    ++active_[flow.uplink];
    ++active_[flow.downlink];
    cap_[f] = flow.cap.is_infinite() ? kInf : flow.cap.bytes_per_second();
    min_cap = std::min(min_cap, cap_[f]);
  }

  std::size_t active_flows = n;
  const auto fix_flow = [&](std::size_t f, double rate) {
    alloc_[f] = rate;
    fixed_[f] = 1;
    --active_flows;
    const std::uint32_t path[3] = {0, flows[f].uplink, flows[f].downlink};
    for (std::uint32_t l : path) {
      --active_[l];
      if (remaining_[l] != kInf) {
        remaining_[l] = std::max(0.0, remaining_[l] - rate);
      }
    }
  };

  share_.resize(links);
  while (active_flows > 0) {
    // Equal share offered by the currently most constrained link. The
    // per-link shares are kept: a bottleneck round compares them again.
    double min_link_share = kInf;
    for (std::size_t l = 0; l < links; ++l) {
      if (active_[l] == 0) continue;
      share_[l] = remaining_[l] / static_cast<double>(active_[l]);
      min_link_share = std::min(min_link_share, share_[l]);
    }

    const double level = std::min(min_link_share, min_cap);

    if (level == kInf) {
      // No finite constraint binds the remaining flows.
      for (std::size_t f = 0; f < n; ++f) {
        if (fixed_[f] == 0) fix_flow(f, kInf);
      }
      break;
    }

    const double threshold = level * (1.0 + kEps) + 1e-12;
    double next_min_cap = kInf;  // over the flows this round leaves unfixed

    // First settle flows whose own cap binds at (or below) this level:
    // they take less than their equal share, freeing capacity for others.
    // Some cap binds exactly when the smallest one does, so a round
    // whose caps all stay above the threshold skips this pass.
    if (min_cap <= threshold) {
      for (std::size_t f = 0; f < n; ++f) {
        if (fixed_[f] != 0) continue;
        if (cap_[f] <= threshold) {
          fix_flow(f, cap_[f]);
        } else {
          next_min_cap = std::min(next_min_cap, cap_[f]);
        }
      }
      min_cap = next_min_cap;
      continue;
    }

    // Otherwise the level came from a bottleneck link: freeze every flow
    // crossing a link whose share equals the level. No flow was fixed
    // since the shares were taken, and an unfixed flow's links are all
    // active, so share_ holds their current values.
    bool fixed_any = false;
    for (std::size_t f = 0; f < n; ++f) {
      if (fixed_[f] != 0) continue;
      if (share_[0] <= threshold || share_[flows[f].uplink] <= threshold ||
          share_[flows[f].downlink] <= threshold) {
        fix_flow(f, level);
        fixed_any = true;
      } else {
        next_min_cap = std::min(next_min_cap, cap_[f]);
      }
    }
    check_invariant(fixed_any,
                    "star allocation made no progress; bad input?");
    min_cap = next_min_cap;
  }

  out.resize(n);
  for (std::size_t f = 0; f < n; ++f) {
    out[f] = alloc_[f] == kInf ? Rate::infinity()
                               : Rate::bytes_per_second(alloc_[f]);
  }
}

}  // namespace vsplice::net

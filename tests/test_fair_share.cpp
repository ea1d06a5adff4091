#include "net/fair_share.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace vsplice::net {
namespace {

FlowSpec flow(std::initializer_list<std::uint32_t> links,
              Rate cap = Rate::infinity()) {
  FlowSpec spec;
  for (std::uint32_t l : links) spec.path.push_back(LinkId{l});
  spec.cap = cap;
  return spec;
}

std::vector<Rate> caps(std::initializer_list<double> values) {
  std::vector<Rate> out;
  for (double v : values) out.push_back(Rate::bytes_per_second(v));
  return out;
}

TEST(MaxMin, SingleFlowGetsLinkCapacity) {
  const auto rates = max_min_allocation({flow({0})}, caps({100}));
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 100.0);
}

TEST(MaxMin, EqualSharingOnOneLink) {
  const auto rates =
      max_min_allocation({flow({0}), flow({0}), flow({0}), flow({0})},
                         caps({100}));
  for (const Rate& r : rates) EXPECT_DOUBLE_EQ(r.bytes_per_second(), 25.0);
}

TEST(MaxMin, TextbookTwoLinkExample) {
  // Link 0: 10, link 1: 4. Flow A crosses both, flow B only link 1,
  // flow C only link 0. Bottleneck link 1 gives A and B 2 each; C then
  // takes the rest of link 0: 8.
  const auto rates = max_min_allocation(
      {flow({0, 1}), flow({1}), flow({0})}, caps({10, 4}));
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 2.0);
  EXPECT_DOUBLE_EQ(rates[1].bytes_per_second(), 2.0);
  EXPECT_DOUBLE_EQ(rates[2].bytes_per_second(), 8.0);
}

TEST(MaxMin, FlowCapFreesBandwidthForOthers) {
  const auto rates = max_min_allocation(
      {flow({0}, Rate::bytes_per_second(10)), flow({0})}, caps({100}));
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 10.0);
  EXPECT_DOUBLE_EQ(rates[1].bytes_per_second(), 90.0);
}

TEST(MaxMin, AllFlowsCapped) {
  const auto rates = max_min_allocation(
      {flow({0}, Rate::bytes_per_second(5)),
       flow({0}, Rate::bytes_per_second(7))},
      caps({100}));
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 5.0);
  EXPECT_DOUBLE_EQ(rates[1].bytes_per_second(), 7.0);
}

TEST(MaxMin, EmptyPathLimitedOnlyByCap) {
  const auto rates = max_min_allocation(
      {flow({}, Rate::bytes_per_second(42)), flow({})}, caps({10}));
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 42.0);
  EXPECT_TRUE(rates[1].is_infinite());
}

TEST(MaxMin, ZeroCapacityLinkGivesZero) {
  const auto rates =
      max_min_allocation({flow({0}), flow({1})}, caps({0, 50}));
  EXPECT_DOUBLE_EQ(rates[0].bytes_per_second(), 0.0);
  EXPECT_DOUBLE_EQ(rates[1].bytes_per_second(), 50.0);
}

TEST(MaxMin, InfiniteLinkUnconstrained) {
  std::vector<Rate> capacity{Rate::infinity()};
  const auto rates = max_min_allocation({flow({0}), flow({0})}, capacity);
  EXPECT_TRUE(rates[0].is_infinite());
  EXPECT_TRUE(rates[1].is_infinite());
}

TEST(MaxMin, NoFlows) {
  EXPECT_TRUE(max_min_allocation({}, caps({10})).empty());
}

TEST(MaxMin, RejectsUnknownLink) {
  EXPECT_THROW((void)max_min_allocation({flow({5})}, caps({10})),
               InvalidArgument);
}

TEST(MaxMin, StarTopologyUplinkSharing) {
  // 3 receivers pull from the same sender: sender uplink (link 0) is the
  // bottleneck; receiver downlinks (1,2,3) are fat.
  const auto rates = max_min_allocation(
      {flow({0, 1}), flow({0, 2}), flow({0, 3})}, caps({90, 500, 500, 500}));
  for (const Rate& r : rates) EXPECT_DOUBLE_EQ(r.bytes_per_second(), 30.0);
}

// ------------------------------------------------------------ properties

struct RandomCase {
  std::vector<FlowSpec> flows;
  std::vector<Rate> capacity;
};

RandomCase make_random_case(std::uint64_t seed) {
  Rng rng{seed};
  RandomCase c;
  const std::size_t links = static_cast<std::size_t>(rng.uniform_int(1, 6));
  for (std::size_t l = 0; l < links; ++l) {
    c.capacity.push_back(Rate::bytes_per_second(rng.uniform(10.0, 1000.0)));
  }
  const std::size_t flows = static_cast<std::size_t>(rng.uniform_int(1, 12));
  for (std::size_t f = 0; f < flows; ++f) {
    FlowSpec spec;
    const std::size_t path_len =
        static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(links)));
    std::vector<std::uint32_t> ids;
    for (std::uint32_t l = 0; l < links; ++l) ids.push_back(l);
    rng.shuffle(ids);
    for (std::size_t k = 0; k < path_len; ++k)
      spec.path.push_back(LinkId{ids[k]});
    if (rng.bernoulli(0.4)) {
      spec.cap = Rate::bytes_per_second(rng.uniform(5.0, 500.0));
    }
    c.flows.push_back(std::move(spec));
  }
  return c;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, FeasibleAndSaturated) {
  const RandomCase c = make_random_case(GetParam());
  const auto rates = max_min_allocation(c.flows, c.capacity);
  ASSERT_EQ(rates.size(), c.flows.size());

  // Feasibility: no link oversubscribed, no cap exceeded.
  std::vector<double> load(c.capacity.size(), 0.0);
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    EXPECT_GE(rates[f].bytes_per_second(), 0.0);
    if (!c.flows[f].cap.is_infinite()) {
      EXPECT_LE(rates[f].bytes_per_second(),
                c.flows[f].cap.bytes_per_second() * (1 + 1e-9));
    }
    for (LinkId l : c.flows[f].path) {
      load[l.value] += rates[f].bytes_per_second();
    }
  }
  for (std::size_t l = 0; l < c.capacity.size(); ++l) {
    EXPECT_LE(load[l], c.capacity[l].bytes_per_second() * (1 + 1e-6))
        << "link " << l << " oversubscribed";
  }

  // Pareto efficiency: every flow is limited by its cap or by at least
  // one saturated link on its path (can't be raised for free).
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    if (!c.flows[f].cap.is_infinite() &&
        rates[f].bytes_per_second() >=
            c.flows[f].cap.bytes_per_second() * (1 - 1e-9)) {
      continue;  // cap-limited
    }
    bool saturated = false;
    for (LinkId l : c.flows[f].path) {
      if (load[l.value] >=
          c.capacity[l.value].bytes_per_second() * (1 - 1e-6)) {
        saturated = true;
        break;
      }
    }
    EXPECT_TRUE(saturated) << "flow " << f << " could be increased";
  }
}

TEST_P(MaxMinProperty, MaxMinFairness) {
  // Characterization of max-min fairness: every flow that is not limited
  // by its own cap has a *bottleneck link* on its path — a saturated link
  // on which it achieves the maximum rate among all flows crossing it.
  // (If no such link existed, the flow's rate could be raised by taking
  // bandwidth only from strictly larger flows.)
  const RandomCase c = make_random_case(GetParam() + 1000);
  const auto rates = max_min_allocation(c.flows, c.capacity);
  std::vector<double> load(c.capacity.size(), 0.0);
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    for (LinkId l : c.flows[f].path) {
      load[l.value] += rates[f].bytes_per_second();
    }
  }
  for (std::size_t f = 0; f < c.flows.size(); ++f) {
    const double rf = rates[f].bytes_per_second();
    const bool cap_limited =
        !c.flows[f].cap.is_infinite() &&
        rf >= c.flows[f].cap.bytes_per_second() * (1 - 1e-9);
    if (cap_limited) continue;
    bool has_bottleneck = false;
    for (LinkId l : c.flows[f].path) {
      if (load[l.value] <
          c.capacity[l.value].bytes_per_second() * (1 - 1e-6)) {
        continue;  // not saturated
      }
      double max_on_link = 0.0;
      for (std::size_t g = 0; g < c.flows.size(); ++g) {
        const bool shares_link = std::any_of(
            c.flows[g].path.begin(), c.flows[g].path.end(),
            [&](LinkId gl) { return gl == l; });
        if (shares_link) {
          max_on_link = std::max(max_on_link, rates[g].bytes_per_second());
        }
      }
      if (rf >= max_on_link * (1 - 1e-6)) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck)
        << "flow " << f << " (rate " << rf << ") has no bottleneck link";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCases, MaxMinProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

// ------------------------------------------- star/generic differential

/// A random star workload for the differential suite: flows between
/// distinct nodes, mixed finite/infinite links, ~40% capped.
struct StarCase {
  std::vector<StarFlowSpec> star;
  std::vector<FlowSpec> generic;
  std::vector<Rate> capacity;
};

StarCase make_star_case(std::uint64_t seed) {
  Rng rng{seed};
  StarCase c;
  const std::size_t nodes = static_cast<std::size_t>(rng.uniform_int(2, 12));
  c.capacity.push_back(rng.bernoulli(0.7)
                           ? Rate::infinity()
                           : Rate::bytes_per_second(
                                 rng.uniform(100.0, 10000.0)));
  for (std::size_t nd = 0; nd < nodes; ++nd) {
    for (int dir = 0; dir < 2; ++dir) {
      c.capacity.push_back(
          rng.bernoulli(0.1)
              ? Rate::infinity()
              : Rate::bytes_per_second(rng.uniform(10.0, 1000.0)));
    }
  }
  const std::size_t flows = static_cast<std::size_t>(rng.uniform_int(1, 24));
  for (std::size_t f = 0; f < flows; ++f) {
    const std::size_t src = rng.index(nodes);
    std::size_t dst = rng.index(nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    StarFlowSpec star;
    star.uplink = static_cast<std::uint32_t>(1 + 2 * src);
    star.downlink = static_cast<std::uint32_t>(2 + 2 * dst);
    if (rng.bernoulli(0.4)) {
      star.cap = Rate::bytes_per_second(rng.uniform(5.0, 500.0));
    }
    FlowSpec generic;
    generic.path = {LinkId{0}, LinkId{star.uplink}, LinkId{star.downlink}};
    generic.cap = star.cap;
    c.star.push_back(star);
    c.generic.push_back(std::move(generic));
  }
  return c;
}

TEST(StarAllocatorDifferential, MatchesGenericOver1000Seeds) {
  // One StarAllocator across all cases: scratch reuse must never leak
  // state from a previous (differently sized) problem.
  StarAllocator allocator;
  std::vector<Rate> star_rates;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const StarCase c = make_star_case(seed);
    const std::vector<Rate> generic_rates =
        max_min_allocation(c.generic, c.capacity);
    allocator.allocate(c.star, c.capacity, star_rates);
    ASSERT_EQ(star_rates.size(), generic_rates.size()) << "seed " << seed;
    for (std::size_t f = 0; f < star_rates.size(); ++f) {
      ASSERT_EQ(star_rates[f].is_infinite(), generic_rates[f].is_infinite())
          << "seed " << seed << " flow " << f;
      if (generic_rates[f].is_infinite()) continue;
      const double g = generic_rates[f].bytes_per_second();
      ASSERT_NEAR(star_rates[f].bytes_per_second(), g, 1e-6 * (1.0 + g))
          << "seed " << seed << " flow " << f;
    }
  }
}

// ------------------------------------------------- no-op cap raises

/// Bitwise equality of two allocations (infinite rates included).
void expect_bitwise_equal(const std::vector<Rate>& a,
                          const std::vector<Rate>& b, const char* what,
                          std::uint64_t seed) {
  ASSERT_EQ(a.size(), b.size()) << what << " seed " << seed;
  for (std::size_t f = 0; f < a.size(); ++f) {
    EXPECT_EQ(a[f].bytes_per_second(), b[f].bytes_per_second())
        << what << " seed " << seed << " flow " << f;
  }
}

TEST(CapRaiseProperty, RaisingNonBindingCapsChangesNoRateBitwise) {
  // Network::set_flow_cap skips the reallocation when it raises the cap
  // of a flow whose rate is below its old cap. That is exact only if
  // such a raise leaves every rate of both allocators bit for bit
  // unchanged — checked here over star instances with caps, infinite
  // links and (one link in eight) zero-capacity links.
  StarAllocator allocator;
  std::vector<Rate> before;
  std::vector<Rate> after;
  std::size_t raised_total = 0;
  std::size_t zero_rate_raised = 0;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    StarCase c = make_star_case(seed);
    Rng rng{seed + 7919};
    for (std::size_t l = 1; l < c.capacity.size(); ++l) {
      if (rng.bernoulli(0.125)) c.capacity[l] = Rate::zero();
    }
    allocator.allocate(c.star, c.capacity, before);
    const std::vector<Rate> generic_before =
        max_min_allocation(c.generic, c.capacity);
    for (const bool to_infinity : {false, true}) {
      StarCase raised = c;
      for (std::size_t f = 0; f < c.star.size(); ++f) {
        if (!(before[f] < c.star[f].cap)) continue;  // cap-bound: kept
        const Rate cap = to_infinity ? Rate::infinity()
                                     : c.star[f].cap * rng.uniform(1.0, 4.0);
        raised.star[f].cap = cap;
        raised.generic[f].cap = cap;
        ++raised_total;
        if (before[f].is_zero()) ++zero_rate_raised;
      }
      allocator.allocate(raised.star, raised.capacity, after);
      expect_bitwise_equal(before, after, "star", seed);
      expect_bitwise_equal(generic_before,
                           max_min_allocation(raised.generic,
                                              raised.capacity),
                           "generic", seed);
    }
  }
  // The instances exercise the rule, including flows stuck at zero.
  EXPECT_GT(raised_total, 2000u);
  EXPECT_GT(zero_rate_raised, 50u);
}

TEST(StarAllocatorDifferential, EmptyFlowSet) {
  StarAllocator allocator;
  std::vector<Rate> rates{Rate::zero()};  // stale contents must be cleared
  allocator.allocate({}, caps({10}), rates);
  EXPECT_TRUE(rates.empty());
}

TEST(StarAllocatorDifferential, RejectsMissingTrunk) {
  StarAllocator allocator;
  std::vector<Rate> rates;
  EXPECT_THROW(allocator.allocate({StarFlowSpec{}}, {}, rates),
               InvalidArgument);
}

}  // namespace
}  // namespace vsplice::net

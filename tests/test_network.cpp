#include "net/network.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "common/error.h"
#include "net/bandwidth_schedule.h"

namespace vsplice::net {
namespace {

NodeSpec make_node(double kBps, Duration delay = Duration::millis(25),
                   double loss = 0.0) {
  NodeSpec spec;
  spec.uplink = Rate::kilobytes_per_second(kBps);
  spec.downlink = Rate::kilobytes_per_second(kBps);
  spec.one_way_delay = delay;
  spec.loss = loss;
  return spec;
}

struct Fixture {
  sim::Simulator sim;
  Network net{sim};
};

TEST(Network, NodeBookkeeping) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(128, Duration::millis(25), 0.02));
  const NodeId b = f.net.add_node(make_node(256, Duration::millis(475)));
  EXPECT_EQ(f.net.node_count(), 2u);
  EXPECT_EQ(f.net.one_way_delay(a, b), Duration::millis(500));
  EXPECT_EQ(f.net.rtt(a, b), Duration::seconds(1));
  EXPECT_NEAR(f.net.path_loss(a, b), 0.02, 1e-12);
  EXPECT_THROW((void)f.net.node(NodeId{9}), InvalidArgument);
}

TEST(Network, PathLossCombines) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(128, Duration::millis(1), 0.1));
  const NodeId b = f.net.add_node(make_node(128, Duration::millis(1), 0.2));
  EXPECT_NEAR(f.net.path_loss(a, b), 1.0 - 0.9 * 0.8, 1e-12);
}

TEST(Network, SingleFlowCompletesAtLinkRate) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  bool done = false;
  f.net.start_flow(a, b, 200'000, Rate::infinity(),
                   {[&] { done = true; }, nullptr});
  f.sim.run();
  EXPECT_TRUE(done);
  // 200 kB at 100 kB/s = 2 s.
  EXPECT_NEAR(f.sim.now().as_seconds(), 2.0, 1e-3);
  EXPECT_EQ(f.net.stats().flows_completed, 1u);
  EXPECT_NEAR(f.net.stats().bytes_delivered, 200'000.0, 1.0);
}

TEST(Network, FlowCapLimitsBelowLinkRate) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  bool done = false;
  f.net.start_flow(a, b, 100'000, Rate::kilobytes_per_second(50),
                   {[&] { done = true; }, nullptr});
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(f.sim.now().as_seconds(), 2.0, 1e-3);
}

TEST(Network, UplinkSharedBetweenTwoFlows) {
  Fixture f;
  const NodeId src = f.net.add_node(make_node(100));
  const NodeId d1 = f.net.add_node(make_node(1000));
  const NodeId d2 = f.net.add_node(make_node(1000));
  double t1 = 0;
  double t2 = 0;
  f.net.start_flow(src, d1, 100'000, Rate::infinity(),
                   {[&] { t1 = f.sim.now().as_seconds(); }, nullptr});
  f.net.start_flow(src, d2, 100'000, Rate::infinity(),
                   {[&] { t2 = f.sim.now().as_seconds(); }, nullptr});
  f.sim.run();
  // Both share the 100 kB/s uplink: each finishes at ~2 s.
  EXPECT_NEAR(t1, 2.0, 1e-2);
  EXPECT_NEAR(t2, 2.0, 1e-2);
}

TEST(Network, ShortFlowFreesBandwidthForLongFlow) {
  Fixture f;
  const NodeId src = f.net.add_node(make_node(100));
  const NodeId d1 = f.net.add_node(make_node(1000));
  const NodeId d2 = f.net.add_node(make_node(1000));
  double t_long = 0;
  f.net.start_flow(src, d1, 300'000, Rate::infinity(),
                   {[&] { t_long = f.sim.now().as_seconds(); }, nullptr});
  f.net.start_flow(src, d2, 100'000, Rate::infinity(),
                   {[] {}, nullptr});
  f.sim.run();
  // Short flow: 100 kB at 50 kB/s -> done at 2 s. Long flow: 100 kB in
  // the first 2 s, then 200 kB at full 100 kB/s -> 4 s total.
  EXPECT_NEAR(t_long, 4.0, 1e-2);
}

TEST(Network, AbortReportsDeliveredBytes) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  Bytes delivered = -1;
  bool completed = false;
  const FlowId id = f.net.start_flow(
      a, b, 100'000, Rate::infinity(),
      {[&] { completed = true; }, [&](Bytes got) { delivered = got; }});
  f.sim.run_until(TimePoint::from_seconds(0.5));
  EXPECT_TRUE(f.net.abort_flow(id));
  EXPECT_FALSE(completed);
  EXPECT_NEAR(static_cast<double>(delivered), 50'000.0, 100.0);
  EXPECT_FALSE(f.net.abort_flow(id));  // already gone
  EXPECT_EQ(f.net.stats().flows_aborted, 1u);
}

TEST(Network, AbortFlowsForNode) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const NodeId c = f.net.add_node(make_node(100));
  int aborted = 0;
  f.net.start_flow(a, b, 1_MiB, Rate::infinity(),
                   {[] {}, [&](Bytes) { ++aborted; }});
  f.net.start_flow(b, a, 1_MiB, Rate::infinity(),
                   {[] {}, [&](Bytes) { ++aborted; }});
  f.net.start_flow(a, c, 1_MiB, Rate::infinity(),
                   {[] {}, [&](Bytes) { ++aborted; }});
  f.sim.run_until(TimePoint::from_seconds(0.1));
  f.net.abort_flows_for(b);
  EXPECT_EQ(aborted, 2);
  EXPECT_EQ(f.net.active_flow_count(), 1u);
}

TEST(Network, MidFlowBandwidthChange) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  double done_at = 0;
  f.net.start_flow(a, b, 200'000, Rate::infinity(),
                   {[&] { done_at = f.sim.now().as_seconds(); }, nullptr});
  f.sim.at(TimePoint::from_seconds(1), [&] {
    // Halve the source uplink after 100 kB have moved.
    f.net.set_node_bandwidth(a, Rate::kilobytes_per_second(50),
                             Rate::kilobytes_per_second(50));
  });
  f.sim.run();
  // 100 kB at 100 kB/s, then 100 kB at 50 kB/s: 1 + 2 = 3 s.
  EXPECT_NEAR(done_at, 3.0, 1e-2);
}

TEST(Network, SetFlowCapMidFlight) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  double done_at = 0;
  const FlowId id = f.net.start_flow(
      a, b, 200'000, Rate::kilobytes_per_second(50),
      {[&] { done_at = f.sim.now().as_seconds(); }, nullptr});
  f.sim.at(TimePoint::from_seconds(2), [&] {
    f.net.set_flow_cap(id, Rate::infinity());
  });
  f.sim.run();
  // 100 kB at 50 kB/s, then 100 kB at 100 kB/s: 2 + 1 = 3 s.
  EXPECT_NEAR(done_at, 3.0, 1e-2);
}

TEST(Network, ZeroByteFlowCompletesImmediately) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  bool done = false;
  f.net.start_flow(a, b, 0, Rate::infinity(), {[&] { done = true; }, nullptr});
  EXPECT_FALSE(done);  // never synchronous
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.sim.now(), TimePoint::origin());
}

TEST(Network, PerNodeTransferAccounting) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  f.net.start_flow(a, b, 50'000, Rate::infinity(), {[] {}, nullptr});
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(f.net.uploaded_by(a)), 50'000, 1);
  EXPECT_NEAR(static_cast<double>(f.net.downloaded_by(b)), 50'000, 1);
  EXPECT_EQ(f.net.uploaded_by(b), 0);
  EXPECT_EQ(f.net.downloaded_by(a), 0);
}

TEST(Network, RejectsBadFlows) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  EXPECT_THROW(
      (void)f.net.start_flow(a, a, 10, Rate::infinity(), {[] {}, nullptr}),
      InvalidArgument);
  const NodeId b = f.net.add_node(make_node(100));
  EXPECT_THROW(
      (void)f.net.start_flow(a, b, -1, Rate::infinity(), {[] {}, nullptr}),
      InvalidArgument);
  EXPECT_THROW(
      (void)f.net.start_flow(a, b, 10, Rate::infinity(), {nullptr, nullptr}),
      InvalidArgument);
}

TEST(Network, CompletionCallbackSeesUpdatedRates) {
  // Callback contract: by the time on_complete runs, the finished flow
  // is gone and the survivors' rates are already recomputed — the
  // surviving flow must show the full uplink, not the half it had while
  // sharing.
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const NodeId c = f.net.add_node(make_node(100));
  FlowId survivor{};
  double rate_seen_kBps = 0.0;
  survivor = f.net.start_flow(a, c, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  f.net.start_flow(a, b, 50'000, Rate::infinity(),
                   {[&] {
                      rate_seen_kBps =
                          f.net.flow_rate(survivor).kilobytes_per_second();
                    },
                    nullptr});
  f.sim.run();
  EXPECT_NEAR(rate_seen_kBps, 100.0, 1e-6);
}

TEST(Network, AbortCallbackSeesUpdatedRates) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const NodeId c = f.net.add_node(make_node(100));
  const FlowId survivor =
      f.net.start_flow(a, c, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  double rate_seen_kBps = 0.0;
  const FlowId doomed = f.net.start_flow(
      a, b, 1'000'000, Rate::infinity(),
      {[] {}, [&](Bytes) {
         rate_seen_kBps =
             f.net.flow_rate(survivor).kilobytes_per_second();
       }});
  f.sim.run_until(TimePoint::origin() + Duration::seconds(1));
  f.net.abort_flow(doomed);
  EXPECT_NEAR(rate_seen_kBps, 100.0, 1e-6);
}

TEST(Network, AbortFlowsForReallocatesOnce) {
  // Batch abort: all doomed flows leave the table under a single
  // reallocation, and every on_abort already observes the final rates.
  Fixture f;
  const NodeId seeder = f.net.add_node(make_node(100));
  const NodeId leaver = f.net.add_node(make_node(100));
  const NodeId stayer = f.net.add_node(make_node(100));
  const FlowId survivor =
      f.net.start_flow(seeder, stayer, 5'000'000, Rate::infinity(),
                       {[] {}, nullptr});
  std::vector<double> rates_seen_kBps;
  for (int i = 0; i < 3; ++i) {
    f.net.start_flow(seeder, leaver, 5'000'000, Rate::infinity(),
                     {[] {}, [&](Bytes) {
                        rates_seen_kBps.push_back(
                            f.net.flow_rate(survivor)
                                .kilobytes_per_second());
                      }});
  }
  f.sim.run_until(TimePoint::origin() + Duration::seconds(1));
  const std::uint64_t before = f.net.stats().reallocations;
  f.net.abort_flows_for(leaver);
  EXPECT_EQ(f.net.stats().reallocations, before + 1);
  ASSERT_EQ(rates_seen_kBps.size(), 3u);
  // Every callback sees the post-abort world: the survivor alone on the
  // seeder's uplink.
  for (double r : rates_seen_kBps) EXPECT_NEAR(r, 100.0, 1e-6);
  EXPECT_EQ(f.net.stats().flows_aborted, 3u);
  EXPECT_TRUE(f.net.flow_active(survivor));
}

TEST(Network, CompletionTimeExactUnderRescheduleChurn) {
  // The ETA uses the exact fractional remainder: hundreds of
  // cancel/reschedule cycles — forced here by flipping the flow's own
  // cap between awkward rates every 10 ms — must not accumulate error.
  // The old ceil(remaining-bytes) bias drifted up to 1 byte-time per
  // reschedule (~25 us at 40 kB/s), which over ~400 flips exceeds the
  // millisecond tolerance below.
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const double cap_a_kBps = 61.7;
  const double cap_b_kBps = 39.3;
  const double total_bytes = 200'000.0;
  double done_at = -1.0;
  const FlowId id = f.net.start_flow(
      a, b, static_cast<Bytes>(total_bytes),
      Rate::kilobytes_per_second(cap_a_kBps),
      {[&] { done_at = f.sim.now().as_seconds(); }, nullptr});
  auto churn = std::make_shared<std::function<void()>>();
  int flips = 0;
  // The lambda holds its owner weakly: capturing the shared_ptr itself
  // would be a reference cycle, which LeakSanitizer reports.
  *churn = [&, weak = std::weak_ptr<std::function<void()>>{churn}] {
    if (done_at >= 0.0) return;
    ++flips;
    f.net.set_flow_cap(id, Rate::kilobytes_per_second(
                               flips % 2 == 1 ? cap_b_kBps : cap_a_kBps));
    if (const auto self = weak.lock()) {
      f.sim.after(Duration::millis(10), *self);
    }
  };
  f.sim.after(Duration::millis(10), *churn);
  f.sim.run();

  // Exact piecewise integration: interval i covers [i, i+1) * 10 ms at
  // the cap active there.
  double remaining = total_bytes;
  double expected = 0.0;
  for (int i = 0;; ++i) {
    const double rate = (i % 2 == 0 ? cap_a_kBps : cap_b_kBps) * 1000.0;
    const double step = rate * 0.01;
    if (remaining <= step) {
      expected += remaining / rate;
      break;
    }
    remaining -= step;
    expected += 0.01;
  }
  ASSERT_GE(done_at, 0.0);
  EXPECT_GT(flips, 300);
  EXPECT_NEAR(done_at, expected, 1e-3);
  EXPECT_GT(f.net.stats().completion_reschedules, 300u);
}

TEST(Network, UnchangedRateKeepsCompletionEvent) {
  // Incremental reallocation: a reallocation that does not change a
  // flow's rate must not cancel/reschedule its completion event.
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const NodeId c = f.net.add_node(make_node(100));
  const NodeId d = f.net.add_node(make_node(100));
  f.net.start_flow(a, b, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  f.sim.run_until(TimePoint::origin() + Duration::millis(100));
  const std::uint64_t before = f.net.stats().completion_reschedules;
  // A disjoint pair: reallocation runs, but the a->b rate is untouched.
  f.net.start_flow(c, d, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  EXPECT_EQ(f.net.stats().completion_reschedules, before + 1);
}

TEST(Network, LinkBoundCapRaiseSkipsReallocation) {
  // A raise on a flow running below its old cap cannot move any rate
  // (DESIGN.md §16), so both reallocation modes store the cap and skip
  // the reallocation; a raise on a cap-bound flow still reallocates.
  for (const bool full : {false, true}) {
    Fixture f;
    f.net.set_full_reallocation(full);
    const NodeId a = f.net.add_node(make_node(100));
    const NodeId b = f.net.add_node(make_node(100));
    const NodeId c = f.net.add_node(make_node(100));
    const NodeId d = f.net.add_node(make_node(100));
    // a's uplink holds both flows at 50 kB/s: `bound` runs below its cap.
    const FlowId bound = f.net.start_flow(
        a, b, 5'000'000, Rate::kilobytes_per_second(80), {[] {}, nullptr});
    const FlowId other = f.net.start_flow(a, c, 5'000'000, Rate::infinity(),
                                          {[] {}, nullptr});
    // `capped` runs at its own cap, alone on c's uplink.
    const FlowId capped = f.net.start_flow(
        c, d, 5'000'000, Rate::kilobytes_per_second(30), {[] {}, nullptr});
    f.sim.run_until(TimePoint::origin() + Duration::seconds(1));
    ASSERT_NEAR(f.net.flow_rate(bound).kilobytes_per_second(), 50.0, 1e-9);
    ASSERT_NEAR(f.net.flow_rate(capped).kilobytes_per_second(), 30.0, 1e-9);

    const NetworkStats before = f.net.stats();
    const Rate bound_rate = f.net.flow_rate(bound);
    const Rate other_rate = f.net.flow_rate(other);
    const Rate capped_rate = f.net.flow_rate(capped);
    f.net.set_flow_cap(bound, Rate::kilobytes_per_second(90));
    f.net.set_flow_cap(bound, Rate::infinity());
    EXPECT_EQ(f.net.stats().reallocations, before.reallocations) << full;
    EXPECT_EQ(f.net.stats().completion_reschedules,
              before.completion_reschedules)
        << full;
    EXPECT_EQ(f.net.flow_rate(bound), bound_rate) << full;
    EXPECT_EQ(f.net.flow_rate(other), other_rate) << full;
    EXPECT_EQ(f.net.flow_rate(capped), capped_rate) << full;

    // The stored cap takes effect once the link frees up.
    f.net.abort_flow(other);
    EXPECT_NEAR(f.net.flow_rate(bound).kilobytes_per_second(), 100.0, 1e-9)
        << full;

    const std::uint64_t reallocations = f.net.stats().reallocations;
    f.net.set_flow_cap(capped, Rate::kilobytes_per_second(60));
    EXPECT_EQ(f.net.stats().reallocations, reallocations + 1) << full;
    EXPECT_NEAR(f.net.flow_rate(capped).kilobytes_per_second(), 60.0, 1e-9)
        << full;
  }
}

TEST(Network, StaleFlowIdMissesAfterSlotReuse) {
  // Flow ids are generation-tagged slots: once a flow is gone, its id
  // stays dead even after a new flow takes over the same slot.
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(100));
  const FlowId first =
      f.net.start_flow(a, b, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  EXPECT_TRUE(f.net.abort_flow(first));
  const FlowId second =
      f.net.start_flow(a, b, 1'000'000, Rate::infinity(), {[] {}, nullptr});
  EXPECT_NE(first, second);
  EXPECT_FALSE(f.net.flow_active(first));
  EXPECT_FALSE(f.net.abort_flow(first));
  EXPECT_TRUE(f.net.flow_rate(first).is_zero());
  EXPECT_EQ(f.net.flow_remaining(first), 0);
  f.net.set_flow_cap(first, Rate::kilobytes_per_second(1));  // no-op
  EXPECT_TRUE(f.net.flow_active(second));
  EXPECT_NEAR(f.net.flow_rate(second).kilobytes_per_second(), 100.0, 1e-9);
  EXPECT_FALSE(f.net.flow_active(FlowId{}));
  EXPECT_EQ(f.net.active_flow_count(), 1u);
}

TEST(BandwidthSchedule, StepsApplyInOrder) {
  Fixture f;
  const NodeId a = f.net.add_node(make_node(100));
  const NodeId b = f.net.add_node(make_node(1000));
  BandwidthSchedule schedule;
  schedule.add_step(Duration::seconds(1), Rate::kilobytes_per_second(50),
                    Rate::kilobytes_per_second(50));
  schedule.add_step(Duration::seconds(2), Rate::kilobytes_per_second(200),
                    Rate::kilobytes_per_second(200));
  EXPECT_THROW(schedule.add_step(Duration::seconds(2), Rate::zero(),
                                 Rate::zero()),
               InvalidArgument);
  schedule.install(f.net, a);

  double done_at = 0;
  f.net.start_flow(a, b, 350'000, Rate::infinity(),
                   {[&] { done_at = f.sim.now().as_seconds(); }, nullptr});
  f.sim.run();
  // 1 s @100 = 100 kB, 1 s @50 = 50 kB, then 200 kB @200 = 1 s: total 3 s.
  EXPECT_NEAR(done_at, 3.0, 1e-2);
}

TEST(BandwidthSchedule, RatesAtQuery) {
  BandwidthSchedule schedule;
  const Rate initial = Rate::kilobytes_per_second(100);
  schedule.add_step(Duration::seconds(5), Rate::kilobytes_per_second(10),
                    Rate::kilobytes_per_second(20));
  auto [up0, down0] = schedule.rates_at(Duration::seconds(1), initial, initial);
  EXPECT_EQ(up0, initial);
  auto [up1, down1] = schedule.rates_at(Duration::seconds(5), initial, initial);
  EXPECT_EQ(up1, Rate::kilobytes_per_second(10));
  EXPECT_EQ(down1, Rate::kilobytes_per_second(20));
}

}  // namespace
}  // namespace vsplice::net

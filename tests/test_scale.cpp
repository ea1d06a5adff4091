// Large-swarm scheduling engine: differential tests proving the
// incremental structures (word-packed bitfields, holder lists,
// reservoir announces) make exactly the same decisions as the retained
// brute-force path, that the replica counters equal a from-scratch
// rebuild — plus the choke-storm regressions around Leecher::on_choke.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/playlist.h"
#include "core/pool_policy.h"
#include "core/splicer.h"
#include "experiments/paper_setup.h"
#include "net/network.h"
#include "p2p/swarm.h"
#include "p2p/wire.h"
#include "video/encoder.h"

namespace vsplice::p2p {
namespace {

// ------------------------------------------------ scenario differentials

void expect_identical_runs(const experiments::ScenarioResult& oracle,
                           const experiments::ScenarioResult& fast) {
  // Every simulation-visible quantity must match bit for bit: the
  // incremental path is an optimization, not a behaviour change.
  ASSERT_EQ(oracle.viewers.size(), fast.viewers.size());
  for (std::size_t i = 0; i < oracle.viewers.size(); ++i) {
    const streaming::QoeMetrics& a = oracle.viewers[i];
    const streaming::QoeMetrics& b = fast.viewers[i];
    EXPECT_EQ(a.stall_count, b.stall_count) << "viewer " << i;
    EXPECT_EQ(a.total_stall_duration.count_micros(),
              b.total_stall_duration.count_micros())
        << "viewer " << i;
    EXPECT_EQ(a.startup_time.count_micros(), b.startup_time.count_micros())
        << "viewer " << i;
    EXPECT_EQ(a.started, b.started) << "viewer " << i;
    EXPECT_EQ(a.finished, b.finished) << "viewer " << i;
    EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded) << "viewer " << i;
    EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << "viewer " << i;
  }
  EXPECT_EQ(oracle.total_stalls, fast.total_stalls);
  EXPECT_EQ(oracle.total_stall_seconds, fast.total_stall_seconds);
  EXPECT_EQ(oracle.mean_startup_seconds, fast.mean_startup_seconds);
  EXPECT_EQ(oracle.finished_viewers, fast.finished_viewers);
  EXPECT_EQ(oracle.wall_time.count_micros(), fast.wall_time.count_micros());
  EXPECT_EQ(oracle.requests_served, fast.requests_served);
  EXPECT_EQ(oracle.requests_choked, fast.requests_choked);
  EXPECT_EQ(oracle.seeder_uploaded, fast.seeder_uploaded);
  EXPECT_EQ(oracle.peers_uploaded, fast.peers_uploaded);
  EXPECT_EQ(oracle.pieces_aborted, fast.pieces_aborted);
  EXPECT_EQ(oracle.network_bytes_delivered, fast.network_bytes_delivered);
  EXPECT_EQ(oracle.churn_departures, fast.churn_departures);
  // Same decisions, same number of decisions...
  EXPECT_EQ(oracle.segment_picks, fast.segment_picks);
  EXPECT_EQ(oracle.holder_picks, fast.holder_picks);
  // ...but the oracle grinds through far more candidates to make them.
  EXPECT_GE(oracle.candidates_scanned, fast.candidates_scanned);
}

experiments::ScenarioConfig paper_config() {
  experiments::ScenarioConfig config;
  config.splicer = "4s";
  config.policy = "adaptive";
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 20;  // the paper's twenty VMs
  config.seed = 1;
  return config;
}

TEST(SchedulingDifferential, PaperConfigIdenticalToBruteForce) {
  // The paper's twenty VMs, and a 100-peer, 240 s swarm in which each
  // leecher learns only announce_max_peers (50) of the others, so its
  // holder lists track a partial view of the swarm.
  experiments::ScenarioConfig wide = paper_config();
  wide.nodes = 100;
  wide.time_limit = Duration::seconds(240.0);
  for (const experiments::ScenarioConfig& config : {paper_config(), wide}) {
    SCOPED_TRACE(std::to_string(config.nodes) + " peers");
    experiments::ScenarioConfig oracle_config = config;
    oracle_config.brute_force_scheduling = true;
    const auto oracle = experiments::run_scenario(oracle_config);
    const auto fast = experiments::run_scenario(config);

    expect_identical_runs(oracle, fast);
    // Sanity: this was a real run, not two empty ones agreeing.
    EXPECT_EQ(fast.viewer_count, config.nodes - 1);
    EXPECT_GT(fast.segment_picks, 0u);
    EXPECT_GT(fast.finished_viewers, 0u);
  }
}

TEST(SchedulingDifferential, ChurnIdenticalToBruteForce) {
  // Departures exercise the decrement/forget paths (replica counters,
  // holder-list removal, slot free list); the two paths must still agree.
  experiments::ScenarioConfig base = paper_config();
  base.splicer = "2s";
  base.nodes = 12;
  base.churn = true;
  base.churn_mean_lifetime = Duration::seconds(60.0);
  base.seed = 7;

  experiments::ScenarioConfig oracle_config = base;
  oracle_config.brute_force_scheduling = true;
  const auto oracle = experiments::run_scenario(oracle_config);

  const auto fast = experiments::run_scenario(base);
  expect_identical_runs(oracle, fast);
  EXPECT_GT(fast.churn_departures, 0u);
}

// -------------------------------------------- replica-counter invariants

struct MiniSwarm {
  explicit MiniSwarm(std::size_t viewers, int upload_slots = 2) {
    video::EncoderParams params;
    const video::SyntheticEncoder encoder{params};
    stream = std::make_unique<video::VideoStream>(encoder.encode(
        video::uniform_scene_script(video::Motion::Moderate,
                                    Duration::seconds(16)),
        1));
    auto index = core::make_splicer("2s")->splice(*stream);
    const std::string playlist = core::write_playlist(
        core::playlist_from_index(index, "video.mp4"));

    net::NodeSpec spec;
    spec.uplink = Rate::kilobytes_per_second(384);
    spec.downlink = Rate::kilobytes_per_second(384);
    spec.one_way_delay = Duration::millis(25);
    spec.loss = 0.01;
    const net::NodeId seeder_node = network.add_node(spec);
    swarm = std::make_unique<Swarm>(network, rng, std::move(index),
                                    playlist);
    PeerConfig peer_config;
    peer_config.max_upload_slots = upload_slots;
    swarm->add_seeder(seeder_node, peer_config);

    const auto policy = std::shared_ptr<const core::PoolPolicy>(
        core::make_pool_policy("adaptive"));
    for (std::size_t i = 0; i < viewers; ++i) {
      LeecherConfig config;
      config.policy = policy;
      config.bandwidth_hint = Rate::kilobytes_per_second(384);
      leechers.push_back(&swarm->add_leecher(network.add_node(spec),
                                             peer_config, config));
    }
    Duration at = Duration::zero();
    for (Leecher* leecher : leechers) {
      sim.at(TimePoint::origin() + at, [leecher] { leecher->join(); });
      at += Duration::millis(500);
    }
  }

  void run_for(Duration span) {
    sim.run_until(sim.now() + span);
  }

  /// The incrementally maintained replica counters — and the snapshot
  /// observe() hands the sampler — must always equal a from-scratch
  /// rebuild over every online peer's bitfield, bit by bit.
  void expect_counters_match_rebuild() {
    std::vector<std::size_t> rebuilt(swarm->index().count(), 0);
    const auto add = [&rebuilt](const Peer& peer) {
      if (!peer.online()) return;
      const Bitfield& have = peer.have();
      for (std::size_t i = 0; i < std::min(have.size(), rebuilt.size());
           ++i) {
        if (have.get(i)) ++rebuilt[i];
      }
    };
    add(*swarm->find(swarm->seeder_node()));
    for (const Leecher* leecher : swarm->leechers()) add(*leecher);

    const std::vector<std::uint32_t>& counts = swarm->replica_counts();
    EXPECT_EQ(std::vector<std::size_t>(counts.begin(), counts.end()),
              rebuilt);
    EXPECT_EQ(swarm->observe().replicas, rebuilt);
    EXPECT_EQ(swarm->min_replicas(),
              rebuilt.empty()
                  ? 0
                  : *std::min_element(rebuilt.begin(), rebuilt.end()));
  }

  sim::Simulator sim;
  net::Network network{sim};
  Rng rng{77};
  std::unique_ptr<video::VideoStream> stream;
  std::unique_ptr<Swarm> swarm;
  std::vector<Leecher*> leechers;
};

TEST(ReplicaCounters, MatchBruteForceRebuildMidStream) {
  MiniSwarm mini{5};
  // The seeder alone: every segment has exactly one replica.
  mini.expect_counters_match_rebuild();
  for (std::uint32_t r : mini.swarm->replica_counts()) EXPECT_EQ(r, 1u);

  for (int step = 0; step < 6; ++step) {
    mini.run_for(Duration::seconds(5));
    mini.expect_counters_match_rebuild();
  }
  // By now copies propagated: some segment has more than one holder.
  std::uint32_t peak = 0;
  for (std::uint32_t r : mini.swarm->replica_counts()) {
    peak = std::max(peak, r);
  }
  EXPECT_GT(peak, 1u);
}

TEST(ReplicaCounters, DepartureDecrementsExactlyOnce) {
  MiniSwarm mini{4};
  mini.run_for(Duration::seconds(12));
  mini.expect_counters_match_rebuild();

  Leecher* victim = mini.leechers.front();
  const Bitfield departed_have = victim->have();
  const std::vector<std::uint32_t> before = mini.swarm->replica_counts();
  victim->leave();
  // A second leave must be a no-op (the online guard): counters would
  // underflow or double-decrement otherwise.
  victim->leave();
  const std::vector<std::uint32_t>& after = mini.swarm->replica_counts();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t s = 0; s < after.size(); ++s) {
    const std::uint32_t expected =
        before[s] - (s < departed_have.size() && departed_have.get(s) ? 1 : 0);
    EXPECT_EQ(after[s], expected) << "segment " << s;
  }
  mini.expect_counters_match_rebuild();

  mini.run_for(Duration::seconds(10));
  mini.expect_counters_match_rebuild();
}

// ----------------------------------------------------------- choke storm

TEST(ChokeStorm, ChokeWithNoPendingDownloadIsIgnored) {
  // Regression for the on_choke fallback: a stray CHOKE (e.g. racing a
  // departure) arriving when no download matches — including before the
  // playlist was even fetched, when index_ is still null — must be a
  // no-op rather than resolving to a bogus sentinel segment.
  MiniSwarm mini{2};
  Leecher* leecher = mini.leechers.front();
  const auto bytes = encode(Message{ChokeMsg{}});
  net::Connection conn{mini.network, mini.rng, mini.swarm->seeder_node(),
                       leecher->node()};
  // Before join: no index, no player, no downloads.
  leecher->handle_message(mini.swarm->seeder_node(), conn, bytes);
  EXPECT_EQ(leecher->downloads_in_flight(), 0u);

  // Mid-stream: downloads exist, but none pending towards this holder
  // (the seeder serves promptly at this scale); the fallback loop must
  // not cancel a granted transfer.
  mini.run_for(Duration::seconds(6));
  const std::size_t in_flight = leecher->downloads_in_flight();
  leecher->handle_message(mini.swarm->seeder_node(), conn, bytes);
  EXPECT_LE(leecher->downloads_in_flight(), in_flight + 1);
  mini.run_for(Duration::seconds(40));
  EXPECT_TRUE(leecher->finished());
}

TEST(ChokeStorm, SingleSlotSwarmStreamsThroughRepeatedChokes) {
  // One upload slot everywhere and a tight request queue: most requests
  // are answered with CHOKE, so the retry/cooldown/fallback machinery
  // runs constantly. The swarm must still converge with every viewer
  // finishing.
  MiniSwarm mini{6, /*upload_slots=*/1};
  const TimePoint deadline = TimePoint::origin() + Duration::minutes(20);
  while (mini.sim.now() < deadline && !mini.swarm->all_finished()) {
    const TimePoint next = mini.sim.next_event_time();
    if (next.is_infinite() || next > deadline) break;
    mini.sim.run_until(next + Duration::seconds(1));
  }
  std::uint64_t choked = 0;
  for (Leecher* leecher : mini.leechers) {
    EXPECT_TRUE(leecher->finished());
    choked += leecher->stats().requests_choked;
  }
  const Peer* seeder = mini.swarm->find(mini.swarm->seeder_node());
  choked += seeder->stats().requests_choked;
  EXPECT_GT(choked, 0u);
  mini.expect_counters_match_rebuild();
}

}  // namespace
}  // namespace vsplice::p2p

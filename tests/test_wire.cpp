// Zero-copy message fast path: encoded_size exactness against the real
// codec, decode bounds-hardening under mutated/garbage frames, the
// message-node pool, the encode→decode oracle mode, and the headline
// differential — all eight quickstart figure configs byte-identical
// with the fast path on vs the full codec round trip.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/playlist.h"
#include "core/pool_policy.h"
#include "core/splicer.h"
#include "experiments/paper_setup.h"
#include "net/network.h"
#include "p2p/message_pool.h"
#include "p2p/swarm.h"
#include "p2p/wire.h"
#include "video/encoder.h"

namespace vsplice::p2p {
namespace {

// ------------------------------------------------- encoded_size oracle

/// Every message type, plus bitfields across word boundaries: the
/// arithmetic size must equal what the serializer actually produces,
/// because it is what the simulator charges the network.
TEST(EncodedSize, MatchesEncodeForEveryMessageType) {
  std::vector<Message> corpus{
      HandshakeMsg{1, 7, 60},
      HaveMsg{41},
      InterestedMsg{},
      NotInterestedMsg{},
      ChokeMsg{},
      UnchokeMsg{},
      RequestMsg{3, 123456789, 987654},
      PieceMsg{3, 987654},
      CancelMsg{3},
      GoodbyeMsg{},
  };
  for (std::size_t bits : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                           std::size_t{8}, std::size_t{63}, std::size_t{64},
                           std::size_t{65}, std::size_t{127},
                           std::size_t{1000}, std::size_t{4096}}) {
    Bitfield have{bits};
    for (std::size_t i = 0; i < bits; i += 3) have.set(i);
    corpus.emplace_back(BitfieldMsg{std::move(have)});
  }
  for (const Message& message : corpus) {
    EXPECT_EQ(encoded_size(message), encode(message).size())
        << to_string(type_of(message));
  }
}

// --------------------------------------------- decode bounds-hardening

TEST(DecodeHardening, OversizedDeclaredLengthRejected) {
  // A frame whose declared length exceeds the cap is rejected up front,
  // even when the buffer really is that large.
  std::vector<std::uint8_t> huge(4 + kMaxFrameBytes + 1, 0);
  const std::uint32_t length = kMaxFrameBytes + 1;
  huge[0] = static_cast<std::uint8_t>(length >> 24);
  huge[1] = static_cast<std::uint8_t>(length >> 16);
  huge[2] = static_cast<std::uint8_t>(length >> 8);
  huge[3] = static_cast<std::uint8_t>(length);
  huge[4] = static_cast<std::uint8_t>(MessageType::Goodbye);
  EXPECT_THROW((void)decode(huge), ParseError);
}

TEST(DecodeHardening, ZeroLengthRejected) {
  const std::vector<std::uint8_t> frame{0, 0, 0, 0};
  EXPECT_THROW((void)decode(frame), ParseError);
}

class WireHardening : public ::testing::TestWithParam<std::uint64_t> {};

/// Pure-garbage buffers: decode must throw ParseError or produce a
/// valid message — never crash, never read past the buffer (ASan/UBSan
/// run this test in CI).
TEST_P(WireHardening, GarbageBuffersNeverOverread) {
  Rng rng{GetParam()};
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> garbage(rng.index(64));
    for (std::uint8_t& b : garbage) {
      b = static_cast<std::uint8_t>(rng.index(256));
    }
    try {
      (void)decode(garbage);
    } catch (const ParseError&) {
      // the expected outcome for almost every buffer
    }
  }
}

/// Mutated valid frames, with the length field and the frame boundary
/// targeted explicitly: truncations, trailing garbage, and a corrupted
/// length must all surface as ParseError.
TEST_P(WireHardening, MutatedValidFramesFailClosed) {
  Rng rng{GetParam() + 1000};
  Bitfield have{60};
  for (std::size_t i = 0; i < 60; i += 2) have.set(i);
  const std::vector<Message> corpus{
      HandshakeMsg{1, 9, 60}, BitfieldMsg{have},   HaveMsg{12},
      RequestMsg{5, 777, 999}, PieceMsg{5, 999},   CancelMsg{5},
      InterestedMsg{},         GoodbyeMsg{},
  };
  for (const Message& message : corpus) {
    const std::vector<std::uint8_t> bytes = encode(message);

    // Corrupt the length field (first four bytes) specifically.
    for (std::size_t i = 0; i < 4; ++i) {
      std::vector<std::uint8_t> bad = bytes;
      bad[i] ^= static_cast<std::uint8_t>(1 + rng.index(255));
      EXPECT_THROW((void)decode(bad), ParseError)
          << to_string(type_of(message)) << " length byte " << i;
    }
    // Every truncation throws.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> cut{
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len)};
      EXPECT_THROW((void)decode(cut), ParseError);
    }
    // Trailing garbage breaks the framing equality.
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(static_cast<std::uint8_t>(rng.index(256)));
    EXPECT_THROW((void)decode(extended), ParseError);

    // Arbitrary payload mutations: valid message or ParseError.
    for (int round = 0; round < 50; ++round) {
      std::vector<std::uint8_t> mutated = bytes;
      const std::size_t flips = 1 + rng.index(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.index(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.index(255));
      }
      try {
        (void)type_of(decode(mutated));
      } catch (const ParseError&) {
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireHardening,
                         ::testing::Range<std::uint64_t>(1, 11));

// --------------------------------------------------------- message pool

TEST(MessagePoolTest, RecyclesNodesThroughTheFreelist) {
  MessagePool pool;
  MessagePool::Node* a = pool.acquire(HaveMsg{1});
  MessagePool::Node* b = pool.acquire(HaveMsg{2});
  EXPECT_EQ(pool.live(), 2u);
  EXPECT_EQ(pool.stats().created, 2u);

  const Message taken = pool.take(a);
  EXPECT_EQ(std::get<HaveMsg>(taken).segment, 1u);
  EXPECT_EQ(pool.live(), 1u);

  // The freed node is reused: no new allocation.
  MessagePool::Node* c = pool.acquire(RequestMsg{3, 4, 5});
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.stats().created, 2u);
  EXPECT_EQ(pool.live(), 2u);

  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.stats().acquired, 3u);
  EXPECT_EQ(pool.stats().released, 3u);
}

TEST(MessagePoolTest, NodesKeepStableAddressesAcrossGrowth) {
  MessagePool pool;
  std::vector<MessagePool::Node*> nodes;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    nodes.push_back(pool.acquire(HaveMsg{i}));
  }
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(std::get<HaveMsg>(nodes[i]->message).segment, i);
  }
  for (MessagePool::Node* node : nodes) pool.release(node);
  EXPECT_EQ(pool.live(), 0u);
}

// -------------------------------------------- swarm-level oracle checks

/// A small live swarm (same construction as the scale tests): run it in
/// roundtrip mode and confirm every delivered message really went
/// through the codec oracle; run it in fast-path mode and confirm the
/// pool carried the traffic.
struct MiniSwarm {
  explicit MiniSwarm(bool roundtrip, std::size_t viewers = 5) {
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
    // Left alone when false, so VSPLICE_WIRE_ROUNDTRIP still decides.
    if (roundtrip) swarm->set_codec_roundtrip(true);
    PeerConfig peer_config;
    peer_config.max_upload_slots = 2;
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

  std::unique_ptr<video::VideoStream> stream;
  Rng rng{42};
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<Swarm> swarm;
  std::vector<Leecher*> leechers;
};

/// Pins VSPLICE_WIRE_ROUNDTRIP for one test's duration. These tests
/// exercise a specific mode on purpose, so an inherited environment
/// (the CI sanitizer job exports the oracle toggle over this suite)
/// must not override the scenario under test.
class ScopedWireEnv {
 public:
  explicit ScopedWireEnv(const char* value) {
    if (const char* old = std::getenv("VSPLICE_WIRE_ROUNDTRIP")) {
      saved_ = old;
    }
    if (value == nullptr) {
      unsetenv("VSPLICE_WIRE_ROUNDTRIP");
    } else {
      setenv("VSPLICE_WIRE_ROUNDTRIP", value, 1);
    }
  }
  ~ScopedWireEnv() {
    if (saved_.has_value()) {
      setenv("VSPLICE_WIRE_ROUNDTRIP", saved_->c_str(), 1);
    } else {
      unsetenv("VSPLICE_WIRE_ROUNDTRIP");
    }
  }
  ScopedWireEnv(const ScopedWireEnv&) = delete;
  ScopedWireEnv& operator=(const ScopedWireEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

TEST(WireOracle, RoundtripModeVerifiesEveryDelivery) {
  MiniSwarm mini{/*roundtrip=*/true};
  mini.sim.run_until(TimePoint::from_seconds(30));
  const SwarmStats& stats = mini.swarm->stats();
  EXPECT_GT(stats.messages_routed, 0u);
  // Every delivery (routed or dropped) passed the encode→decode
  // equality assertion first.
  EXPECT_EQ(stats.messages_verified,
            stats.messages_routed + stats.messages_dropped);
  // Oracle mode bypasses the pool entirely.
  EXPECT_EQ(mini.swarm->message_pool().stats().acquired, 0u);
}

TEST(WireOracle, FastPathCarriesTrafficThroughThePool) {
  ScopedWireEnv pin_fast{nullptr};
  MiniSwarm mini{/*roundtrip=*/false};
  mini.sim.run_until(TimePoint::from_seconds(30));
  const SwarmStats& stats = mini.swarm->stats();
  const MessagePool::Stats& pool = mini.swarm->message_pool().stats();
  EXPECT_GT(stats.messages_routed, 0u);
  EXPECT_EQ(stats.messages_verified, 0u);
  // Every routed or dropped message came out of the pool...
  EXPECT_GE(pool.acquired, stats.messages_routed + stats.messages_dropped);
  // ...and the freelist recycles: far fewer nodes exist than messages
  // that moved (nodes created == the in-flight high-water mark).
  EXPECT_LT(pool.created, pool.acquired / 4);
}

TEST(WireOracle, EnvironmentVariableForcesRoundtrip) {
  ScopedWireEnv pin_oracle{"1"};
  MiniSwarm mini{/*roundtrip=*/false};  // setter not called: env decides
  EXPECT_TRUE(mini.swarm->codec_roundtrip());
  mini.sim.run_until(TimePoint::from_seconds(10));
  const SwarmStats& stats = mini.swarm->stats();
  EXPECT_GT(stats.messages_routed, 0u);
  EXPECT_EQ(stats.messages_verified,
            stats.messages_routed + stats.messages_dropped);
}

// -------------------------------------- quickstart-config differential

void expect_identical_runs(const experiments::ScenarioResult& oracle,
                           const experiments::ScenarioResult& fast,
                           const std::string& label) {
  ASSERT_EQ(oracle.viewers.size(), fast.viewers.size()) << label;
  for (std::size_t i = 0; i < oracle.viewers.size(); ++i) {
    const streaming::QoeMetrics& a = oracle.viewers[i];
    const streaming::QoeMetrics& b = fast.viewers[i];
    EXPECT_EQ(a.stall_count, b.stall_count) << label << " viewer " << i;
    EXPECT_EQ(a.total_stall_duration.count_micros(),
              b.total_stall_duration.count_micros())
        << label << " viewer " << i;
    EXPECT_EQ(a.startup_time.count_micros(), b.startup_time.count_micros())
        << label << " viewer " << i;
    EXPECT_EQ(a.started, b.started) << label << " viewer " << i;
    EXPECT_EQ(a.finished, b.finished) << label << " viewer " << i;
    EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded)
        << label << " viewer " << i;
    EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << label << " viewer " << i;
  }
  EXPECT_EQ(oracle.total_stalls, fast.total_stalls) << label;
  EXPECT_EQ(oracle.total_stall_seconds, fast.total_stall_seconds) << label;
  EXPECT_EQ(oracle.mean_startup_seconds, fast.mean_startup_seconds) << label;
  EXPECT_EQ(oracle.finished_viewers, fast.finished_viewers) << label;
  EXPECT_EQ(oracle.wall_time.count_micros(), fast.wall_time.count_micros())
      << label;
  EXPECT_EQ(oracle.requests_served, fast.requests_served) << label;
  EXPECT_EQ(oracle.requests_choked, fast.requests_choked) << label;
  EXPECT_EQ(oracle.seeder_uploaded, fast.seeder_uploaded) << label;
  EXPECT_EQ(oracle.peers_uploaded, fast.peers_uploaded) << label;
  EXPECT_EQ(oracle.pieces_aborted, fast.pieces_aborted) << label;
  EXPECT_EQ(oracle.network_bytes_delivered, fast.network_bytes_delivered)
      << label;
  EXPECT_EQ(oracle.segment_picks, fast.segment_picks) << label;
  EXPECT_EQ(oracle.holder_picks, fast.holder_picks) << label;
  EXPECT_EQ(oracle.candidates_scanned, fast.candidates_scanned) << label;
  // The two modes must route the exact same message traffic; only the
  // oracle verifies round trips (one per delivery attempt).
  EXPECT_EQ(oracle.messages_routed, fast.messages_routed) << label;
  EXPECT_EQ(oracle.messages_dropped, fast.messages_dropped) << label;
  EXPECT_EQ(oracle.messages_verified,
            oracle.messages_routed + oracle.messages_dropped)
      << label;
  EXPECT_EQ(fast.messages_verified, 0u) << label;
}

/// The acceptance gate: all eight quickstart figure configurations
/// (four splicing techniques x two pool policies at the paper's default
/// bandwidth) must produce byte-identical per-viewer QoE and decision
/// counts with the fast path on vs the full codec round trip.
TEST(WireDifferential, QuickstartConfigsIdenticalFastVsRoundtrip) {
  ScopedWireEnv pin_explicit{nullptr};  // each run sets wire_roundtrip
  const std::vector<std::string> splicers{"gop", "2s", "4s", "8s"};
  const std::vector<std::string> policies{"adaptive", "fixed:4"};
  for (const std::string& splicer : splicers) {
    for (const std::string& policy : policies) {
      experiments::ScenarioConfig config;
      config.splicer = splicer;
      config.policy = policy;
      config.bandwidth = Rate::kilobytes_per_second(256);
      config.nodes = 20;
      config.seed = 1;

      config.wire_roundtrip = false;
      const auto fast = experiments::run_scenario(config);
      config.wire_roundtrip = true;
      const auto oracle = experiments::run_scenario(config);

      const std::string label = splicer + "/" + policy;
      expect_identical_runs(oracle, fast, label);
      // Sanity: a real run, not two empty ones agreeing.
      EXPECT_EQ(fast.viewer_count, 19u) << label;
      EXPECT_GT(fast.segment_picks, 0u) << label;
      EXPECT_GT(fast.finished_viewers, 0u) << label;
    }
  }
}

}  // namespace
}  // namespace vsplice::p2p

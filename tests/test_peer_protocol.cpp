// Server-side protocol behaviour: serving, choking, request queueing,
// and swarm message routing — exercised against a minimal two-peer swarm.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "core/playlist.h"
#include "core/splicer.h"
#include "core/pool_policy.h"
#include "net/network.h"
#include "p2p/swarm.h"
#include "video/encoder.h"

namespace vsplice::p2p {
namespace {

struct ProtoFixture {
  ProtoFixture() {
    video::EncoderParams params;
    const video::SyntheticEncoder encoder{params};
    stream = std::make_unique<video::VideoStream>(encoder.encode(
        video::uniform_scene_script(video::Motion::Moderate,
                                    Duration::seconds(12)),
        1));
    auto index = core::make_splicer("2s")->splice(*stream);
    segment_count = index.count();
    const std::string playlist = core::write_playlist(
        core::playlist_from_index(index, "video.mp4"));

    net::NodeSpec spec;
    spec.uplink = Rate::kilobytes_per_second(512);
    spec.downlink = Rate::kilobytes_per_second(512);
    spec.one_way_delay = Duration::millis(20);
    seeder_node = network.add_node(spec);
    client_node = network.add_node(spec);
    other_node = network.add_node(spec);

    swarm = std::make_unique<Swarm>(network, rng, std::move(index),
                                    playlist);
    PeerConfig config;
    config.max_upload_slots = 1;
    seeder = &swarm->add_seeder(seeder_node, config);
    // Host a real (never-joined) peer on the requesting node so the
    // seeder's queue recognizes it as a live client.
    LeecherConfig leecher_config;
    leecher_config.policy = std::shared_ptr<const core::PoolPolicy>(
        core::make_pool_policy("adaptive"));
    client = &swarm->add_leecher(client_node, PeerConfig{},
                                 leecher_config);
  }

  /// Sends a raw serialized message from client_node to the seeder over
  /// a fresh established connection, then runs the sim to quiescence.
  net::Connection& send_to_seeder(const Message& message) {
    conns.push_back(std::make_unique<net::Connection>(network, rng,
                                                      client_node,
                                                      seeder_node));
    net::Connection* conn = conns.back().get();
    conn->connect([this, conn, message] {
      const auto bytes = encode(message);
      conn->send_message(client_node, static_cast<Bytes>(bytes.size()),
                         [this, conn, bytes] {
                           swarm->deliver(client_node, seeder->node(),
                                          *conn, bytes);
                         });
    });
    sim.run();
    return *conn;
  }

  sim::Simulator sim;
  net::Network network{sim};
  Rng rng{5};
  std::unique_ptr<video::VideoStream> stream;
  std::size_t segment_count = 0;
  net::NodeId seeder_node;
  net::NodeId client_node;
  net::NodeId other_node;
  std::unique_ptr<Swarm> swarm;
  Seeder* seeder = nullptr;
  Leecher* client = nullptr;
  std::vector<std::unique_ptr<net::Connection>> conns;
};

TEST(PeerProtocol, SeederStartsWithFullBitfield) {
  ProtoFixture f;
  EXPECT_TRUE(f.seeder->have().all());
  EXPECT_TRUE(f.seeder->is_seeder());
  EXPECT_TRUE(f.seeder->online());
  EXPECT_EQ(f.seeder->active_uploads(), 0);
}

TEST(PeerProtocol, RequestIsServedAsPieceFlow) {
  ProtoFixture f;
  f.send_to_seeder(RequestMsg{0, 0, 100'000});
  // The push completed: bytes were uploaded, outcome routed.
  EXPECT_EQ(f.seeder->stats().requests_received, 1u);
  EXPECT_EQ(f.seeder->stats().requests_served, 1u);
  EXPECT_GT(f.seeder->stats().bytes_uploaded, 100'000);  // + header
  EXPECT_EQ(f.swarm->stats().pieces_delivered, 1u);
  EXPECT_EQ(f.seeder->active_uploads(), 0);
}

TEST(PeerProtocol, RequestForMissingSegmentIsChoked) {
  ProtoFixture f;
  f.send_to_seeder(RequestMsg{
      static_cast<std::uint32_t>(f.segment_count + 5), 0, 1000});
  EXPECT_EQ(f.seeder->stats().requests_choked, 1u);
  EXPECT_EQ(f.seeder->stats().requests_served, 0u);
}

TEST(PeerProtocol, SlotsFullQueuesThenChokes) {
  ProtoFixture f;
  // Three "simultaneous" requests against 1 slot + 1 queue entry: the
  // first serves, the second queues, the third chokes. To make them
  // overlap, issue them without running the sim in between.
  for (int i = 0; i < 3; ++i) {
    f.conns.push_back(std::make_unique<net::Connection>(
        f.network, f.rng, f.client_node, f.seeder_node));
    net::Connection* conn = f.conns.back().get();
    conn->connect([&f, conn, i] {
      const auto bytes =
          encode(RequestMsg{static_cast<std::uint32_t>(i), 0, 400'000});
      conn->send_message(f.client_node, static_cast<Bytes>(bytes.size()),
                         [&f, conn, bytes] {
                           f.swarm->deliver(f.client_node,
                                            f.seeder->node(), *conn,
                                            bytes);
                         });
    });
  }
  f.sim.run();
  EXPECT_EQ(f.seeder->stats().requests_received, 3u);
  // All eventually served? The queued one is served when the slot frees;
  // the choked one is answered with CHOKE and never retried here.
  EXPECT_EQ(f.seeder->stats().requests_served, 2u);
  EXPECT_EQ(f.seeder->stats().requests_queued, 1u);
  EXPECT_EQ(f.seeder->stats().requests_choked, 1u);
}

TEST(PeerProtocol, QueuedRequestDroppedIfConnectionDies) {
  ProtoFixture f;
  for (int i = 0; i < 2; ++i) {
    f.conns.push_back(std::make_unique<net::Connection>(
        f.network, f.rng, f.client_node, f.seeder_node));
    net::Connection* conn = f.conns.back().get();
    conn->connect([&f, conn, i] {
      const auto bytes =
          encode(RequestMsg{static_cast<std::uint32_t>(i), 0, 400'000});
      conn->send_message(f.client_node, static_cast<Bytes>(bytes.size()),
                         [&f, conn, bytes] {
                           f.swarm->deliver(f.client_node,
                                            f.seeder->node(), *conn,
                                            bytes);
                         });
    });
  }
  // Let both requests arrive (second one queues), then kill the queued
  // requester's connection before the slot frees.
  f.sim.run_until(TimePoint::from_seconds(0.5));
  ASSERT_EQ(f.seeder->stats().requests_queued, 1u);
  f.conns.back()->close();
  f.sim.run();
  // The queue entry was skipped: only the first request got served.
  EXPECT_EQ(f.seeder->stats().requests_served, 1u);
}

TEST(PeerProtocol, HandshakeGetsBitfieldReply) {
  ProtoFixture f;
  // A handshake with the right segment count triggers a BITFIELD reply,
  // delivered back to the client peer over the same connection.
  f.send_to_seeder(HandshakeMsg{
      1, f.client_node.value, static_cast<std::uint32_t>(f.segment_count)});
  EXPECT_GE(f.swarm->stats().messages_routed, 2u);  // handshake + reply
  EXPECT_EQ(f.client->stats().messages_received, 1u);
}

TEST(PeerProtocol, MismatchedHandshakeIgnored) {
  ProtoFixture f;
  f.send_to_seeder(HandshakeMsg{1, f.client_node.value, 9999});
  EXPECT_EQ(f.swarm->stats().messages_dropped, 0u);  // no reply sent
}

TEST(PeerProtocol, MalformedMessageThrows) {
  ProtoFixture f;
  auto conn = std::make_unique<net::Connection>(f.network, f.rng,
                                                f.client_node,
                                                f.seeder_node);
  const std::vector<std::uint8_t> garbage{0, 0, 0, 2, 42, 42};
  EXPECT_THROW(
      f.seeder->handle_message(f.client_node, *conn, garbage),
      ParseError);
}

TEST(PeerProtocol, SwarmRejectsDuplicateRoles) {
  ProtoFixture f;
  EXPECT_THROW((void)f.swarm->add_seeder(f.other_node), InvalidArgument);
  LeecherConfig config;
  config.policy = std::shared_ptr<const core::PoolPolicy>(
      core::make_pool_policy("adaptive"));
  (void)f.swarm->add_leecher(f.other_node, PeerConfig{}, config);
  EXPECT_THROW((void)f.swarm->add_leecher(f.other_node, PeerConfig{},
                                          config),
               InvalidArgument);
}

TEST(PeerProtocol, SwarmLookupAndStats) {
  ProtoFixture f;
  EXPECT_EQ(f.swarm->find(f.seeder_node), f.seeder);
  EXPECT_EQ(f.swarm->find(net::NodeId{77}), nullptr);
  EXPECT_EQ(f.swarm->seeder_node(), f.seeder_node);
  EXPECT_TRUE(f.swarm->has_seeder());
  EXPECT_EQ(f.swarm->leechers().size(), 1u);
  EXPECT_FALSE(f.swarm->all_finished());  // the viewer never finished
}

TEST(PeerProtocol, TrackerRegistersSeederAtConstruction) {
  ProtoFixture f;
  EXPECT_TRUE(f.swarm->tracker().is_registered(f.seeder_node));
}

TEST(PeerProtocol, PeerConfigValidation) {
  ProtoFixture f;
  PeerConfig bad;
  bad.max_upload_slots = 0;
  EXPECT_THROW((void)f.swarm->add_seeder(f.other_node, bad),
               InvalidArgument);
}

}  // namespace
}  // namespace vsplice::p2p

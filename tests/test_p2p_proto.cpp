// Tests for the protocol building blocks: bitfields, wire codec, tracker.
#include <gtest/gtest.h>

#include "common/error.h"
#include "p2p/bitfield.h"
#include "p2p/tracker.h"
#include "p2p/wire.h"

namespace vsplice::p2p {
namespace {

// ----------------------------------------------------------------- bitfield

TEST(Bitfield, SetGetCount) {
  Bitfield field{10};
  EXPECT_EQ(field.size(), 10u);
  EXPECT_TRUE(field.empty());
  field.set(3);
  field.set(3);  // idempotent
  field.set(9);
  EXPECT_EQ(field.count(), 2u);
  EXPECT_TRUE(field.get(3));
  EXPECT_FALSE(field.get(4));
  EXPECT_FALSE(field.all());
  field.set_all();
  EXPECT_TRUE(field.all());
  EXPECT_EQ(field.count(), 10u);
}

TEST(Bitfield, NextSetAndClear) {
  Bitfield field{8};
  field.set(2);
  field.set(5);
  EXPECT_EQ(field.next_set(0), 2u);
  EXPECT_EQ(field.next_set(3), 5u);
  EXPECT_EQ(field.next_set(6), 8u);
  EXPECT_EQ(field.next_clear(0), 0u);
  EXPECT_EQ(field.next_clear(2), 3u);
  field.set_all();
  EXPECT_EQ(field.next_clear(0), 8u);
}

TEST(Bitfield, PackedBytesBigEndianBitOrder) {
  Bitfield field{10};
  field.set(0);
  field.set(9);
  const auto bytes = field.to_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x80);  // bit 0 = MSB of byte 0 (BitTorrent order)
  EXPECT_EQ(bytes[1], 0x40);  // bit 9 = second MSB of byte 1
}

TEST(Bitfield, RoundTrip) {
  Bitfield field{19};
  for (std::size_t i : {0u, 3u, 7u, 8u, 18u}) field.set(i);
  EXPECT_EQ(Bitfield::from_bytes(19, field.to_bytes()), field);
}

TEST(Bitfield, FromBytesValidation) {
  EXPECT_THROW((void)Bitfield::from_bytes(10, {0xFF}), ParseError);
  // Stray bits past size.
  EXPECT_THROW((void)Bitfield::from_bytes(4, {0x0F}), ParseError);
  EXPECT_THROW((void)Bitfield::from_bytes(10, {0, 0, 0}), ParseError);
  Bitfield empty = Bitfield::from_bytes(0, {});
  EXPECT_EQ(empty.size(), 0u);
}

TEST(Bitfield, OutOfRange) {
  Bitfield field{3};
  EXPECT_THROW((void)field.get(3), InvalidArgument);
  EXPECT_THROW(field.set(3), InvalidArgument);
}

// --------------------------------------------------------------- wire codec

TEST(Wire, HandshakeRoundTrip) {
  const HandshakeMsg msg{1, 42, 30};
  const Message decoded = decode(encode(msg));
  EXPECT_EQ(std::get<HandshakeMsg>(decoded), msg);
}

TEST(Wire, AllMessageTypesRoundTrip) {
  Bitfield have{12};
  have.set(1);
  have.set(11);
  const std::vector<Message> messages{
      HandshakeMsg{1, 7, 12},
      BitfieldMsg{have},
      HaveMsg{5},
      InterestedMsg{},
      NotInterestedMsg{},
      ChokeMsg{},
      UnchokeMsg{},
      RequestMsg{3, 1'500'000, 550'000},
      PieceMsg{3, 550'000},
      CancelMsg{3},
      GoodbyeMsg{},
  };
  for (const Message& msg : messages) {
    const Message decoded = decode(encode(msg));
    EXPECT_EQ(decoded, msg) << to_string(type_of(msg));
  }
}

TEST(Wire, FramingCarriesLength) {
  const auto bytes = encode(HaveMsg{9});
  // u32 length + u8 type + u32 segment.
  ASSERT_EQ(bytes.size(), 9u);
  EXPECT_EQ(bytes[3], 5);  // length = type byte + 4 payload bytes
  EXPECT_EQ(bytes[4], static_cast<std::uint8_t>(MessageType::Have));
}

TEST(Wire, RejectsBadMagic) {
  auto bytes = encode(HandshakeMsg{1, 7, 12});
  bytes[5] ^= 0xFF;  // corrupt the magic
  EXPECT_THROW((void)decode(bytes), ParseError);
}

TEST(Wire, RejectsTruncationAndTrailingGarbage) {
  auto bytes = encode(RequestMsg{3, 100, 200});
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW((void)decode(truncated), ParseError);
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_THROW((void)decode(extended), ParseError);
}

TEST(Wire, RejectsUnknownType) {
  std::vector<std::uint8_t> bytes{0, 0, 0, 1, 99};
  EXPECT_THROW((void)decode(bytes), ParseError);
  // Type 12 is unassigned: a well-formed frame carrying it still fails.
  std::vector<std::uint8_t> type12{0, 0, 0, 5, 12, 0, 0, 0, 1};
  EXPECT_THROW((void)decode(type12), ParseError);
}

TEST(Wire, RejectsZeroLength) {
  std::vector<std::uint8_t> bytes{0, 0, 0, 0};
  EXPECT_THROW((void)decode(bytes), ParseError);
}

TEST(Wire, TypeOfNames) {
  EXPECT_STREQ(to_string(type_of(Message{ChokeMsg{}})), "choke");
  EXPECT_STREQ(to_string(type_of(Message{PieceMsg{}})), "piece");
  EXPECT_STREQ(to_string(type_of(Message{GoodbyeMsg{}})), "goodbye");
}

TEST(Wire, BitfieldMessageScales) {
  Bitfield big{1000};
  for (std::size_t i = 0; i < 1000; i += 3) big.set(i);
  const Message decoded = decode(encode(BitfieldMsg{big}));
  EXPECT_EQ(std::get<BitfieldMsg>(decoded).have, big);
  // Wire size: 4 len + 1 type + 4 bit count + 125 packed bytes.
  EXPECT_EQ(encode(BitfieldMsg{big}).size(), 134u);
}

// ------------------------------------------------------------------ tracker

TEST(Tracker, RegisterUnregister) {
  Tracker tracker;
  EXPECT_TRUE(tracker.register_peer(net::NodeId{1}));
  EXPECT_FALSE(tracker.register_peer(net::NodeId{1}));  // duplicate
  EXPECT_TRUE(tracker.register_peer(net::NodeId{2}));
  EXPECT_EQ(tracker.peer_count(), 2u);
  EXPECT_TRUE(tracker.is_registered(net::NodeId{1}));
  EXPECT_TRUE(tracker.unregister_peer(net::NodeId{1}));
  EXPECT_FALSE(tracker.unregister_peer(net::NodeId{1}));
  EXPECT_FALSE(tracker.is_registered(net::NodeId{1}));
}

TEST(Tracker, PeersForExcludesRequesterAndCaps) {
  Tracker tracker;
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  Rng rng{1};
  const auto peers = tracker.peers_for(net::NodeId{3}, rng);
  EXPECT_EQ(peers.size(), 9u);
  for (net::NodeId id : peers) EXPECT_NE(id, net::NodeId{3});
  const auto capped = tracker.peers_for(net::NodeId{3}, rng, 4);
  EXPECT_EQ(capped.size(), 4u);
}

TEST(Tracker, PeersForShuffles) {
  Tracker tracker;
  for (std::uint32_t i = 0; i < 30; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  Rng rng{2};
  const auto a = tracker.peers_for(net::NodeId{99}, rng);
  const auto b = tracker.peers_for(net::NodeId{99}, rng);
  EXPECT_NE(a, b);  // different draws from the same rng
}

// Large-swarm announces go through the reservoir sampler; these pin its
// contract: deterministic per seed, requester never sampled, size clamps
// to the membership, and no member is systematically unreachable.

TEST(Tracker, ReservoirSampleIsDeterministicBySeed) {
  Tracker tracker;
  for (std::uint32_t i = 0; i < 500; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  Rng rng_a{42};
  Rng rng_b{42};
  const auto a = tracker.peers_for(net::NodeId{7}, rng_a, 50);
  const auto b = tracker.peers_for(net::NodeId{7}, rng_b, 50);
  EXPECT_EQ(a, b);
  Rng rng_c{43};
  const auto c = tracker.peers_for(net::NodeId{7}, rng_c, 50);
  EXPECT_NE(a, c);
}

TEST(Tracker, ReservoirSampleExcludesRequester) {
  Tracker tracker;
  for (std::uint32_t i = 0; i < 300; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng{seed};
    const auto sample = tracker.peers_for(net::NodeId{150}, rng, 40);
    ASSERT_EQ(sample.size(), 40u);
    for (net::NodeId id : sample) {
      EXPECT_NE(id, net::NodeId{150});
      EXPECT_LT(id.value, 300u);
    }
    // No duplicates.
    auto sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(Tracker, ReservoirSampleClampsToSwarmSize) {
  Tracker tracker;
  for (std::uint32_t i = 0; i < 12; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  Rng rng{5};
  // max_peers far above membership: everyone but the requester comes back.
  auto all = tracker.peers_for(net::NodeId{3}, rng, 50);
  EXPECT_EQ(all.size(), 11u);
  std::sort(all.begin(), all.end());
  for (std::uint32_t i = 0, j = 0; i < 12; ++i) {
    if (i == 3) continue;
    EXPECT_EQ(all[j++], net::NodeId{i});
  }
  // An unregistered requester is not subtracted from the candidate count.
  auto outsider = tracker.peers_for(net::NodeId{99}, rng, 12);
  EXPECT_EQ(outsider.size(), 12u);
}

// The sparse Fisher-Yates sampler exists for announce waves at
// bench_scale swarm sizes, so pin its contract where it matters: a
// 10k-member registry. Each announce touches O(max_peers) state, so
// this whole test is cheap despite the swarm size.
TEST(Tracker, SampleStressAtTenThousandPeers) {
  Tracker tracker;
  const std::uint32_t members = 10'000;
  for (std::uint32_t i = 0; i < members; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  ASSERT_EQ(tracker.peer_count(), members);
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const net::NodeId requester{static_cast<std::uint32_t>(seed) * 997};
    Rng rng_a{seed};
    Rng rng_b{seed};
    const auto a = tracker.peers_for(requester, rng_a, 50);
    const auto b = tracker.peers_for(requester, rng_b, 50);
    EXPECT_EQ(a, b);  // deterministic per seed at scale
    ASSERT_EQ(a.size(), 50u);
    auto sorted = a;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
              sorted.end());  // no duplicates
    for (net::NodeId id : a) {
      EXPECT_NE(id, requester);  // requester never sampled
      EXPECT_LT(id.value, members);
    }
  }
  // The sampler must keep excluding the requester when its sorted
  // position sits at either edge of the registry.
  for (const std::uint32_t edge : {std::uint32_t{0}, members - 1}) {
    Rng rng{9};
    for (net::NodeId id : tracker.peers_for(net::NodeId{edge}, rng, 200)) {
      EXPECT_NE(id, net::NodeId{edge});
    }
  }
}

TEST(Tracker, ReservoirReachesEveryPeerAcrossSeeds) {
  Tracker tracker;
  const std::uint32_t members = 200;
  for (std::uint32_t i = 0; i < members; ++i) {
    tracker.register_peer(net::NodeId{i});
  }
  std::vector<bool> seen(members, false);
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    Rng rng{seed};
    for (net::NodeId id : tracker.peers_for(net::NodeId{members + 1}, rng,
                                            30)) {
      seen[id.value] = true;
    }
  }
  // 64 samples of 30/200: the odds any single peer is never drawn are
  // (1 - 0.15)^64 ~ 3e-5; all 200 escaping is effectively impossible.
  EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
}

}  // namespace
}  // namespace vsplice::p2p

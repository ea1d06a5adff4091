// Robustness / failure-injection properties: corrupted inputs must fail
// loudly (ParseError) and never crash or silently mis-parse; the fluid
// network must conserve bytes under arbitrary arrival/abort schedules.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "net/network.h"
#include "p2p/wire.h"
#include "video/encoder.h"
#include "video/mp4.h"

namespace vsplice {
namespace {

// -------------------------------------------------------- wire fuzzing

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MutatedMessagesNeverCrash) {
  Rng rng{GetParam()};
  p2p::Bitfield have{32};
  for (std::size_t i = 0; i < 32; i += 3) have.set(i);
  const std::vector<p2p::Message> corpus{
      p2p::HandshakeMsg{1, 7, 32}, p2p::BitfieldMsg{have},
      p2p::HaveMsg{5},             p2p::RequestMsg{3, 100, 200},
      p2p::PieceMsg{3, 200},       p2p::CancelMsg{3},
  };
  for (const p2p::Message& msg : corpus) {
    auto bytes = p2p::encode(msg);
    // Mutate 1-4 random bytes.
    const int mutations = 1 + static_cast<int>(rng.index(4));
    for (int m = 0; m < mutations; ++m) {
      bytes[rng.index(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.index(255));
    }
    // Either parses to some valid message or throws ParseError —
    // anything else (crash, other exception) fails the test.
    try {
      const p2p::Message decoded = p2p::decode(bytes);
      (void)p2p::type_of(decoded);
    } catch (const ParseError&) {
      // expected for most mutations
    }
  }
}

TEST_P(WireFuzz, TruncationsAlwaysThrow) {
  Rng rng{GetParam() + 500};
  const auto bytes = p2p::encode(p2p::RequestMsg{9, 1234, 5678});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut{bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len)};
    EXPECT_THROW((void)p2p::decode(cut), ParseError) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// --------------------------------------------------------- MP4 fuzzing

class Mp4Fuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Mp4Fuzz, CorruptedHeadersNeverCrash) {
  Rng rng{GetParam()};
  video::EncoderParams params;
  const video::SyntheticEncoder encoder{params};
  const video::VideoStream stream = encoder.encode(
      video::uniform_scene_script(video::Motion::Moderate,
                                  Duration::seconds(4)),
      1);
  video::Mp4WriteOptions options;
  options.include_payload = false;
  auto bytes = video::write_mp4(stream, options);

  // Corrupt within the first 2 kB (ftyp + moov headers and tables).
  const std::size_t zone = std::min<std::size_t>(bytes.size(), 2048);
  for (int m = 0; m < 6; ++m) {
    bytes[rng.index(zone)] ^=
        static_cast<std::uint8_t>(1 + rng.index(255));
  }
  try {
    const video::VideoStream parsed = video::read_mp4(bytes);
    // If it still parses, the result must be internally consistent.
    EXPECT_GT(parsed.frame_count(), 0u);
    EXPECT_GT(parsed.byte_size(), 0);
  } catch (const Error&) {
    // ParseError (or a validation InvalidArgument) is the expected
    // outcome for most corruptions.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Mp4Fuzz,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------------------------------------------- network conservation

class NetworkChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkChaos, BytesAreConservedUnderArrivalsAndAborts) {
  Rng rng{GetParam()};
  sim::Simulator sim;
  net::Network network{sim};

  const std::size_t nodes = 4 + rng.index(5);
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < nodes; ++i) {
    net::NodeSpec spec;
    spec.uplink = Rate::kilobytes_per_second(rng.uniform(32, 512));
    spec.downlink = Rate::kilobytes_per_second(rng.uniform(32, 512));
    spec.one_way_delay =
        Duration::millis(1 + static_cast<std::int64_t>(rng.index(50)));
    ids.push_back(network.add_node(spec));
  }

  double completed_bytes = 0;
  double aborted_bytes = 0;
  std::vector<net::FlowId> flows;
  const std::size_t flow_count = 5 + rng.index(20);
  for (std::size_t i = 0; i < flow_count; ++i) {
    const auto src = ids[rng.index(nodes)];
    auto dst = ids[rng.index(nodes)];
    while (dst == src) dst = ids[rng.index(nodes)];
    const Bytes size = 1000 + rng.uniform_int(0, 400'000);
    const double start = rng.uniform(0, 10);
    sim.at(TimePoint::from_seconds(start), [&, src, dst, size] {
      const net::FlowId id = network.start_flow(
          src, dst, size, Rate::infinity(),
          {[&completed_bytes, size] {
             completed_bytes += static_cast<double>(size);
           },
           [&aborted_bytes](Bytes delivered) {
             aborted_bytes += static_cast<double>(delivered);
           }});
      flows.push_back(id);
    });
  }
  // Random aborts mid-run.
  for (int k = 0; k < 5; ++k) {
    sim.at(TimePoint::from_seconds(rng.uniform(5, 15)), [&] {
      if (flows.empty()) return;
      network.abort_flow(flows[rng.index(flows.size())]);
    });
  }
  sim.run();

  // Conservation: network-level delivered bytes equal per-flow
  // completions plus partial deliveries of aborted flows.
  EXPECT_NEAR(network.stats().bytes_delivered,
              completed_bytes + aborted_bytes,
              1.0 + 0.0001 * (completed_bytes + aborted_bytes));

  // Per-node ledgers agree with the global ledger.
  double uploaded = 0;
  double downloaded = 0;
  for (const net::NodeId id : ids) {
    uploaded += static_cast<double>(network.uploaded_by(id));
    downloaded += static_cast<double>(network.downloaded_by(id));
  }
  EXPECT_NEAR(uploaded, network.stats().bytes_delivered,
              1.0 + 1e-4 * uploaded);
  EXPECT_NEAR(downloaded, network.stats().bytes_delivered,
              1.0 + 1e-4 * downloaded);
  EXPECT_EQ(network.active_flow_count(), 0u);
  EXPECT_EQ(network.stats().flows_started,
            network.stats().flows_completed +
                network.stats().flows_aborted);
}

TEST_P(NetworkChaos, FlowsNeverExceedLinkCapacityOverTime) {
  Rng rng{GetParam() + 3000};
  sim::Simulator sim;
  net::Network network{sim};
  net::NodeSpec spec;
  spec.uplink = Rate::kilobytes_per_second(100);
  spec.downlink = Rate::kilobytes_per_second(100);
  spec.one_way_delay = Duration::millis(10);
  const net::NodeId a = network.add_node(spec);
  const net::NodeId b = network.add_node(spec);
  const net::NodeId c = network.add_node(spec);

  // Several flows out of `a`: its 100 kB/s uplink bounds the aggregate.
  const int n = 2 + static_cast<int>(rng.index(5));
  for (int i = 0; i < n; ++i) {
    network.start_flow(a, i % 2 == 0 ? b : c, 200'000, Rate::infinity(),
                       {[] {}, nullptr});
  }
  sim.run();
  const double elapsed = sim.now().as_seconds();
  // total bytes = n * 200 kB through a 100 kB/s uplink: elapsed >= bytes/cap.
  EXPECT_GE(elapsed + 1e-6, static_cast<double>(n) * 200'000 / 100'000.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkChaos,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace vsplice

#include "net/connection.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vsplice::net {
namespace {

struct Fixture {
  Fixture() {
    NodeSpec spec;
    spec.uplink = Rate::kilobytes_per_second(100);
    spec.downlink = Rate::kilobytes_per_second(100);
    spec.one_way_delay = Duration::millis(50);
    spec.loss = 0.0;
    client = net.add_node(spec);
    server = net.add_node(spec);
  }
  sim::Simulator sim;
  Network net{sim};
  Rng rng{7};
  NodeId client;
  NodeId server;
};

TEST(Connection, HandshakeTakesOneRttWithoutLoss) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  EXPECT_EQ(conn.state(), Connection::State::Fresh);
  bool established = false;
  conn.connect([&] { established = true; });
  EXPECT_EQ(conn.state(), Connection::State::Connecting);
  f.sim.run();
  EXPECT_TRUE(established);
  EXPECT_TRUE(conn.established());
  // RTT = 2 * (50 + 50) ms = 200 ms.
  EXPECT_NEAR(f.sim.now().as_seconds(), 0.2, 1e-9);
}

TEST(Connection, FetchDeliversAfterRequestAndTransfer) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  Connection::FetchResult result;
  bool got = false;
  conn.connect([&] {
    conn.fetch(100, 100'000, [&](const Connection::FetchResult& r) {
      result = r;
      got = true;
    });
  });
  f.sim.run();
  ASSERT_TRUE(got);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.bytes_delivered, 100'000);
  // handshake 0.2 + request 0.1 + transfer >= 1 s (link limited).
  EXPECT_GT(f.sim.now().as_seconds(), 1.2);
  EXPECT_LT(f.sim.now().as_seconds(), 2.5);  // slow start adds a little
  EXPECT_GT(result.elapsed, Duration::seconds(1.0));
}

TEST(Connection, SlowStartDelaysEarlyBytes) {
  // A tiny transfer completes while still window-limited, so its goodput
  // is far below the link rate; a long transfer amortizes slow start.
  Fixture f;
  Connection small_conn{f.net, f.rng, f.client, f.server};
  double small_elapsed = 0;
  small_conn.connect([&] {
    small_conn.fetch(0, 30'000, [&](const Connection::FetchResult& r) {
      small_elapsed = r.elapsed.as_seconds();
    });
  });
  f.sim.run();
  // 30 kB at 100 kB/s would be 0.3 s + 0.1 request; slow start (IW 10,
  // 14.6 kB in the first RTT) makes it noticeably slower.
  EXPECT_GT(small_elapsed, 0.45);
}

TEST(Connection, PushSkipsRequestLeg) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  double fetch_elapsed = 0;
  double push_elapsed = 0;
  conn.connect([&] {
    conn.fetch(0, 50'000, [&](const Connection::FetchResult& r1) {
      fetch_elapsed = r1.elapsed.as_seconds();
      conn.push(50'000, [&](const Connection::FetchResult& r2) {
        push_elapsed = r2.elapsed.as_seconds();
      });
    });
  });
  f.sim.run();
  EXPECT_GT(fetch_elapsed, 0.0);
  EXPECT_GT(push_elapsed, 0.0);
  // The push is faster: no request one-way delay, and the congestion
  // window persists from the previous transfer.
  EXPECT_LT(push_elapsed, fetch_elapsed);
}

TEST(Connection, IdleResetsCongestionWindow) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  double first = 0;
  double warm = 0;
  double cold = 0;
  conn.connect([&] {
    conn.fetch(0, 60'000, [&](const Connection::FetchResult& r) {
      first = r.elapsed.as_seconds();
      // Immediately reuse: window is warm.
      conn.push(60'000, [&](const Connection::FetchResult& r2) {
        warm = r2.elapsed.as_seconds();
        // Idle well past the RTO, then transfer again: window is cold.
        f.sim.after(Duration::seconds(10), [&] {
          conn.push(60'000, [&](const Connection::FetchResult& r3) {
            cold = r3.elapsed.as_seconds();
          });
        });
      });
    });
  });
  f.sim.run();
  EXPECT_GT(first, 0.0);
  EXPECT_LT(warm, cold);  // slow-start restart after idleness
}

TEST(Connection, SendMessageDeliversOneWay) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  double delivered_at = 0;
  conn.connect([&] {
    conn.send_message(f.client, 64,
                      [&] { delivered_at = f.sim.now().as_seconds(); });
  });
  f.sim.run();
  EXPECT_NEAR(delivered_at, 0.2 + 0.1, 1e-9);
}

TEST(Connection, CloseDropsPendingMessages) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  bool delivered = false;
  conn.connect([&] {
    conn.send_message(f.client, 64, [&] { delivered = true; });
    conn.close();
  });
  f.sim.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(conn.state(), Connection::State::Closed);
}

TEST(Connection, CloseAbortsActiveFetch) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  Connection::FetchResult result;
  bool got = false;
  conn.connect([&] {
    conn.fetch(0, 1'000'000, [&](const Connection::FetchResult& r) {
      result = r;
      got = true;
    });
  });
  f.sim.run_until(TimePoint::from_seconds(3));
  conn.close();
  ASSERT_TRUE(got);
  EXPECT_TRUE(result.aborted);
  EXPECT_GT(result.bytes_delivered, 0);
  EXPECT_LT(result.bytes_delivered, 1'000'000);
}

TEST(Connection, ServerSideAbortReportsToFetch) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  bool aborted = false;
  conn.connect([&] {
    conn.fetch(0, 1'000'000, [&](const Connection::FetchResult& r) {
      aborted = r.aborted;
    });
  });
  f.sim.run_until(TimePoint::from_seconds(2));
  // The server host dies: its flows abort.
  f.net.abort_flows_for(f.server);
  EXPECT_TRUE(aborted);
  EXPECT_FALSE(conn.fetch_in_progress());
}

TEST(Connection, OnlyOneTransferAtATime) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  conn.connect([&] {
    conn.fetch(0, 10'000, [](const Connection::FetchResult&) {});
    EXPECT_THROW(
        conn.fetch(0, 10, [](const Connection::FetchResult&) {}),
        InvalidArgument);
    EXPECT_THROW(conn.push(10, [](const Connection::FetchResult&) {}),
                 InvalidArgument);
  });
  f.sim.run();
}

TEST(Connection, RequiresEstablishment) {
  Fixture f;
  Connection conn{f.net, f.rng, f.client, f.server};
  EXPECT_THROW(conn.fetch(0, 10, [](const Connection::FetchResult&) {}),
               InvalidArgument);
  EXPECT_THROW(conn.send_message(f.client, 1, [] {}), InvalidArgument);
}

TEST(Connection, RegistryFindsLiveConnections) {
  Fixture f;
  auto conn = std::make_unique<Connection>(f.net, f.rng, f.client, f.server);
  const std::uint64_t id = conn->id();
  EXPECT_EQ(f.net.find_connection(id), conn.get());
  conn.reset();
  EXPECT_EQ(f.net.find_connection(id), nullptr);
}

TEST(Connection, RegistryRecyclesSlotsWithoutResurrectingStaleIds) {
  Fixture f;
  auto first = std::make_unique<Connection>(f.net, f.rng, f.client, f.server);
  const std::uint64_t stale = first->id();
  first.reset();
  // The freed slot is reused, but under a bumped generation: the new
  // connection gets a different id and the old id stays dead.
  auto second =
      std::make_unique<Connection>(f.net, f.rng, f.client, f.server);
  EXPECT_NE(second->id(), stale);
  EXPECT_EQ(f.net.find_connection(stale), nullptr);
  EXPECT_EQ(f.net.find_connection(second->id()), second.get());
  EXPECT_FALSE(f.net.find_connection(0));  // a zero id never resolves
}

TEST(Connection, RegistryStaysBoundedUnderConnectionChurn) {
  Fixture f;
  // Warm up one slot, then churn 1000 sequential connections through
  // the registry: every one should land in the recycled slot, so the
  // slab (visible through the capacity-based memory accounting) must
  // not grow at all — the old code leaked a nullptr tombstone per
  // departed connection.
  std::make_unique<Connection>(f.net, f.rng, f.client, f.server).reset();
  const std::uint64_t warm = f.net.memory_bytes();
  std::uint64_t previous = 0;
  for (int i = 0; i < 1000; ++i) {
    auto conn =
        std::make_unique<Connection>(f.net, f.rng, f.client, f.server);
    EXPECT_NE(conn->id(), previous);
    previous = conn->id();
  }
  EXPECT_EQ(f.net.memory_bytes(), warm);
}

TEST(Connection, LossMakesHandshakeSlowerOnAverage) {
  Fixture f;
  NodeSpec lossy;
  lossy.uplink = Rate::kilobytes_per_second(100);
  lossy.downlink = Rate::kilobytes_per_second(100);
  lossy.one_way_delay = Duration::millis(50);
  lossy.loss = 0.3;
  const NodeId lc = f.net.add_node(lossy);
  const NodeId ls = f.net.add_node(lossy);

  double total = 0;
  int done = 0;
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 200; ++i) {
    conns.push_back(std::make_unique<Connection>(f.net, f.rng, lc, ls));
    conns.back()->connect([&] {
      total += f.sim.now().as_seconds();
      ++done;
    });
  }
  f.sim.run();
  EXPECT_EQ(done, 200);
  // With ~51% pair loss per packet and a 1 s RTO the mean handshake far
  // exceeds the lossless 0.2 s RTT.
  EXPECT_GT(total / 200.0, 0.8);
}

}  // namespace
}  // namespace vsplice::net

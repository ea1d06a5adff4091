#include "p2p/swarm.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/error.h"
#include "common/log.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace vsplice::p2p {

namespace {
/// VSPLICE_WIRE_ROUNDTRIP=1 (any value but "" and "0") forces the
/// encode→decode oracle path for every message in the process.
bool env_wire_roundtrip() {
  const char* env = std::getenv("VSPLICE_WIRE_ROUNDTRIP");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}
}  // namespace

Swarm::Swarm(net::Network& network, Rng& rng,
             std::shared_ptr<const core::SegmentIndex> index,
             std::shared_ptr<const std::string> playlist_text)
    : network_{network},
      rng_{rng},
      index_{std::move(index)},
      playlist_text_{std::move(playlist_text)},
      codec_roundtrip_{env_wire_roundtrip()},
      replicas_(index_->count(), 0) {
  require(index_ != nullptr, "swarm needs a segment index");
  require(playlist_text_ != nullptr && !playlist_text_->empty(),
          "swarm needs the seeder's playlist");
}

Swarm::Swarm(net::Network& network, Rng& rng, core::SegmentIndex index,
             std::string playlist_text)
    : Swarm{network, rng,
            std::make_shared<const core::SegmentIndex>(std::move(index)),
            std::make_shared<const std::string>(std::move(playlist_text))} {}

Swarm::~Swarm() {
  // Destroying a peer with transfers still in flight fires its
  // connections' close callbacks, which route back through find() and
  // notify_piece_outcome(). Tear peers down explicitly while the lookup
  // structures are still alive, clearing each peer's entry first so
  // routing to an already-destroyed peer resolves to "gone" instead of
  // a dangling pointer.
  for (auto it = peers_.rbegin(); it != peers_.rend(); ++it) {
    const Peer* raw = it->get();
    if (raw != nullptr && raw->node().value < by_node_.size()) {
      by_node_[raw->node().value] = nullptr;
    }
    it->reset();
  }
}

void Swarm::register_peer_node(Peer* peer) {
  const std::size_t slot = peer->node().value;
  if (slot >= by_node_.size()) by_node_.resize(slot + 1, nullptr);
  by_node_[slot] = peer;
  if (slot >= online_.size()) online_.resize(slot + 1, 0);
  online_[slot] = 1;  // peers are constructed online
}

Seeder& Swarm::add_seeder(net::NodeId node, PeerConfig config) {
  require(seeder_ == nullptr, "this swarm already has a seeder");
  require(find(node) == nullptr, "node already hosts a peer");
  auto seeder = std::make_unique<Seeder>(*this, node, config);
  seeder_ = seeder.get();
  peers_.push_back(std::move(seeder));
  register_peer_node(seeder_);
  tracker_.register_peer(node);
  return *seeder_;
}

Leecher& Swarm::add_leecher(net::NodeId node, PeerConfig peer_config,
                            LeecherConfig config) {
  require(find(node) == nullptr, "node already hosts a peer");
  auto leecher = std::make_unique<Leecher>(*this, node, peer_config,
                                           std::move(config),
                                           rng_.next_u64());
  Leecher& ref = *leecher;
  peers_.push_back(std::move(leecher));
  register_peer_node(&ref);
  leecher_list_.push_back(&ref);
  return ref;
}

Peer* Swarm::find(net::NodeId node) {
  if (brute_force_) {
    // Retained pre-change lookup, kept as the oracle's cost model. The
    // null check only matters during ~Swarm, where entries are reset in
    // place.
    for (auto& peer : peers_) {
      if (peer != nullptr && peer->node() == node) return peer.get();
    }
    return nullptr;
  }
  return node.value < by_node_.size() ? by_node_[node.value] : nullptr;
}

const Peer* Swarm::find(net::NodeId node) const {
  if (brute_force_) {
    for (const auto& peer : peers_) {
      if (peer != nullptr && peer->node() == node) return peer.get();
    }
    return nullptr;
  }
  return node.value < by_node_.size() ? by_node_[node.value] : nullptr;
}

void Swarm::note_replica_gained(std::size_t segment) {
  require(segment < replicas_.size(), "replica counter out of range");
  ++replicas_[segment];
}

void Swarm::note_replicas_all_gained() {
  for (std::uint32_t& count : replicas_) ++count;
}

std::size_t Swarm::min_replicas() const {
  if (replicas_.empty()) return 0;
  std::uint32_t lo = replicas_.front();
  for (const std::uint32_t count : replicas_) lo = std::min(lo, count);
  return lo;
}

net::NodeId Swarm::seeder_node() const {
  require(seeder_ != nullptr, "swarm has no seeder");
  return seeder_->node();
}

bool Swarm::all_finished() const {
  bool any = false;
  for (const Leecher* leecher : leecher_list_) {
    if (!leecher->online()) continue;
    any = true;
    if (!leecher->finished()) return false;
  }
  return any;
}

obs::MemoryBreakdown Swarm::memory_breakdown() const {
  obs::MemoryBreakdown out;
  out.add("sim", network_.simulator().memory_bytes());
  out.add("net", network_.memory_bytes());
  out.add("p2p.pool", pool_.memory_bytes());
  std::uint64_t sched = 0;
  std::uint64_t swarm_tables =
      static_cast<std::uint64_t>(peers_.capacity()) *
          sizeof(std::unique_ptr<Peer>) +
      static_cast<std::uint64_t>(by_node_.capacity()) * sizeof(Peer*) +
      static_cast<std::uint64_t>(online_.capacity()) *
          sizeof(std::uint8_t) +
      static_cast<std::uint64_t>(leecher_list_.capacity()) *
          sizeof(Leecher*) +
      static_cast<std::uint64_t>(replicas_.capacity()) *
          sizeof(std::uint32_t);
  for (const auto& peer : peers_) {
    swarm_tables += peer->have().memory_bytes();
  }
  for (const Leecher* leecher : leecher_list_) {
    sched += leecher->scheduler_memory_bytes();
  }
  out.add("p2p.sched", sched);
  out.add("p2p.swarm", swarm_tables);
  out.add("content",
          static_cast<std::uint64_t>(index_->count()) *
                  sizeof(core::Segment) +
              playlist_text_->size());
  return out;
}

obs::SwarmObservation Swarm::observe() const {
  VSPLICE_PROFILE_SCOPE("swarm.observe");
  obs::SwarmObservation out;
  if (brute_force_) {
    // Retained pre-change histogram rebuild: every online peer's
    // bitfield, bit by bit.
    out.replicas.assign(index_->count(), 0);
    for (const auto& peer : peers_) {
      if (!peer->online()) continue;
      const Bitfield& have = peer->have();
      const std::size_t bits = std::min(have.size(), out.replicas.size());
      for (std::size_t i = 0; i < bits; ++i) {
        if (have.get(i)) ++out.replicas[i];
      }
    }
  } else {
    out.replicas.assign(replicas_.begin(), replicas_.end());
  }
  for (const auto& peer : peers_) {
    if (peer->is_seeder()) {
      out.seeder_active_uploads = peer->active_uploads();
      out.seeder_upload_slots = peer->upload_slots();
      out.seeder_uploaded_bytes = peer->stats().bytes_uploaded;
      continue;
    }
    // Only seeders and leechers exist; the branch above peeled seeders.
    const auto* leecher = static_cast<const Leecher*>(peer.get());
    obs::PeerObservation p;
    p.node = static_cast<std::int64_t>(leecher->node().value);
    p.online = leecher->online();
    p.has_player = leecher->has_player();
    if (leecher->has_player()) {
      const streaming::Player& player = leecher->player();
      p.stalled = player.stalled();
      p.finished = player.finished();
      p.buffer_s = player.buffered_seconds();
      p.completion = player.completion_fraction();
    }
    p.pool = leecher->current_pool_target();
    p.inflight_segments = leecher->downloads_in_flight();
    p.inflight_bytes = leecher->in_flight_bytes();
    p.bytes_downloaded = network_.downloaded_by(leecher->node());
    out.peers.push_back(p);
  }
  // Virtual read: includes each active flow's accrued-but-unsettled
  // progress, so sampled goodput stays smooth under lazy settlement.
  out.network_bytes_delivered = network_.bytes_delivered();
  const net::NetworkStats& net_stats = network_.stats();
  out.reallocations_scoped = net_stats.reallocations_scoped;
  out.flows_retouched = net_stats.flows_retouched;
  out.flows_active_integral = net_stats.flows_active_integral;
  out.flows_settled = net_stats.flows_settled;
  const sim::Simulator& sim = network_.simulator();
  out.events_fired = sim.fired_count();
  out.queue_depth = sim.pending_events();
  out.heap_entries = sim.heap_entries();
  out.heap_high_water = sim.heap_high_water();
  out.heap_compactions = sim.heap_compactions();
  out.memory = memory_breakdown();
  return out;
}

void Swarm::deliver(net::NodeId from, MessagePool::Node* node) {
  VSPLICE_PROFILE_SCOPE("swarm.deliver");
  // Read the delivery context, then take the message out before
  // anything can throw or recurse: the node goes back to the freelist
  // immediately, and dispatch below may send (and acquire) further
  // messages.
  net::Connection& conn = *node->conn;
  const net::NodeId to = node->to;
  const Message message = pool_.take(node);
  Peer* target = find(to);
  if (target == nullptr || !target->online()) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_routed;
  target->handle_message(from, conn, message);
}

void Swarm::deliver_checked(net::NodeId from, net::NodeId to,
                            net::Connection& conn, const Message& original,
                            const std::vector<std::uint8_t>& bytes) {
  // The oracle: everything the fast path would have moved verbatim must
  // survive a real encode→decode round trip unchanged.
  const Message decoded = decode(bytes);
  check_invariant(decoded == original,
                  "wire round trip changed a " +
                      std::string{to_string(type_of(original))} +
                      " message");
  ++stats_.messages_verified;
  Peer* target = find(to);
  if (target == nullptr || !target->online()) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_routed;
  target->handle_message(from, conn, decoded);
}

void Swarm::deliver(net::NodeId from, net::NodeId to, net::Connection& conn,
                    std::vector<std::uint8_t> bytes) {
  Peer* target = find(to);
  if (target == nullptr || !target->online()) {
    ++stats_.messages_dropped;
    return;
  }
  ++stats_.messages_routed;
  target->handle_message(from, conn, bytes);
}

void Swarm::notify_piece_outcome(net::NodeId client, net::NodeId server,
                                 std::size_t segment,
                                 const net::Connection::FetchResult& result) {
  if (result.aborted) {
    ++stats_.pieces_aborted;
  } else {
    ++stats_.pieces_delivered;
  }
  Peer* target = find(client);
  if (target == nullptr || !target->online()) return;
  if (!target->is_seeder()) {
    static_cast<Leecher*>(target)->on_piece_outcome(segment, server, result);
  }
}

void Swarm::broadcast_peer_left(net::NodeId who) {
  // Exactly one broadcast per departure (leave() is online-guarded), so
  // this is where the departing peer's replicas come off the counters.
  if (const Peer* peer = find(who)) {
    peer->have().for_each_set([this](std::size_t segment) {
      require(replicas_[segment] > 0, "replica counter underflow");
      --replicas_[segment];
    });
  }
  if (who.value < online_.size()) online_[who.value] = 0;
  VSPLICE_INFO("swarm") << who.to_string() << " left the swarm";
  obs::instant_span(obs::SpanKind::kLeave, simulator().now(), 0,
                    static_cast<std::int64_t>(who.value), -1);
  for (auto& peer : peers_) {
    if (peer->node() != who && peer->online()) peer->on_peer_left(who);
  }
}

void Swarm::dispose_connection(std::unique_ptr<net::Connection> conn) {
  if (!conn) return;
  conn->close();
  // Defer destruction one tick so callers inside the connection's own
  // callback chain never free the object under their feet.
  simulator().after(Duration::zero(),
                    [keep = std::shared_ptr<net::Connection>(
                         std::move(conn))]() mutable { keep.reset(); });
}

}  // namespace vsplice::p2p

// Swarm orchestration: owns the peers, the tracker, and the ground-truth
// segment index, and routes serialized messages and transfer outcomes
// between peers over the simulated network.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/segment.h"
#include "net/network.h"
#include "obs/sampler.h"
#include "p2p/leecher.h"
#include "p2p/message_pool.h"
#include "p2p/peer.h"
#include "p2p/tracker.h"

namespace vsplice::p2p {

struct SwarmStats {
  std::uint64_t messages_routed = 0;
  std::uint64_t messages_dropped = 0;  // receiver offline
  /// Deliveries that went through the encode→decode oracle and passed
  /// the equality assertion (codec_roundtrip mode only).
  std::uint64_t messages_verified = 0;
  std::uint64_t pieces_delivered = 0;
  std::uint64_t pieces_aborted = 0;
};

class Swarm {
 public:
  /// `index` is the seeder's splicing of the video; `playlist_text` is
  /// the m3u8 the seeder serves (its byte size prices the metadata
  /// fetch, its contents are what leechers parse). This overload shares
  /// immutable content artifacts — a sweep's runs all point at one
  /// cached copy instead of each holding their own.
  Swarm(net::Network& network, Rng& rng,
        std::shared_ptr<const core::SegmentIndex> index,
        std::shared_ptr<const std::string> playlist_text);

  /// Owning-copy convenience overload.
  Swarm(net::Network& network, Rng& rng, core::SegmentIndex index,
        std::string playlist_text);
  ~Swarm();
  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  Seeder& add_seeder(net::NodeId node, PeerConfig config = PeerConfig{});
  Leecher& add_leecher(net::NodeId node, PeerConfig peer_config,
                       LeecherConfig config);

  /// Peer lookup; nullptr when the node hosts no peer. O(1) through a
  /// dense node-indexed table.
  [[nodiscard]] Peer* find(net::NodeId node);
  [[nodiscard]] const Peer* find(net::NodeId node) const;

  /// Struct-of-arrays liveness probe: one dense byte per node id, no
  /// peer-object dereference. The scheduler's candidate sweeps use this
  /// on the fast path (the brute-force oracle reads find()->online()).
  [[nodiscard]] bool node_online(net::NodeId node) const {
    return node.value < online_.size() && online_[node.value] != 0;
  }

  [[nodiscard]] Tracker& tracker() { return tracker_; }
  [[nodiscard]] const core::SegmentIndex& index() const { return *index_; }
  [[nodiscard]] const std::string& playlist_text() const {
    return *playlist_text_;
  }
  [[nodiscard]] MessagePool& message_pool() { return pool_; }
  /// Wire-format oracle: every control message is encoded at send,
  /// decoded at delivery and asserted equal to the original before
  /// dispatch. The fast path (default) moves the Message variant through
  /// the delivery queue with no codec work; both paths charge the
  /// connection the same encoded byte count, so results are
  /// byte-identical either way. Starts on when VSPLICE_WIRE_ROUNDTRIP=1
  /// is in the environment.
  void set_codec_roundtrip(bool on) { codec_roundtrip_ = on; }
  [[nodiscard]] bool codec_roundtrip() const { return codec_roundtrip_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] sim::Simulator& simulator() {
    return network_.simulator();
  }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] const SwarmStats& stats() const { return stats_; }

  /// All leechers in add order (maintained incrementally — no
  /// per-call scan over the peer registry).
  [[nodiscard]] const std::vector<Leecher*>& leechers() const {
    return leecher_list_;
  }
  [[nodiscard]] net::NodeId seeder_node() const;
  [[nodiscard]] bool has_seeder() const { return seeder_ != nullptr; }

  /// True once every online leecher has finished playback.
  [[nodiscard]] bool all_finished() const;

  /// Plain-data snapshot for the obs::SwarmSampler probe: per-leecher
  /// player/pool/in-flight state, per-segment replica counts across
  /// online peers, seeder load, and the network's cumulative byte
  /// counters. Replica counts are read from the incrementally maintained
  /// counters.
  [[nodiscard]] obs::SwarmObservation observe() const;

  /// Per-subsystem byte gauges over everything this swarm (and its
  /// network/simulator) owns: "sim" event queue, "net" flow table +
  /// allocation scratch, "p2p.pool" message nodes, "p2p.sched" the
  /// leechers' scheduling structures, "p2p.swarm" peer/replica tables,
  /// "content" the shared segment index + playlist. Capacity-based and
  /// deterministic (see obs/resource.h).
  [[nodiscard]] obs::MemoryBreakdown memory_breakdown() const;

  /// Selects every leecher's retained linear segment/peer scans; the
  /// differential tests use them as the oracle against the incremental
  /// structures.
  void set_brute_force_oracle(bool on) { brute_force_ = on; }
  [[nodiscard]] bool brute_force_oracle() const { return brute_force_; }

  /// Incremental per-segment replica counters over online peers,
  /// updated as peers gain segments or leave — no full rebuild.
  [[nodiscard]] const std::vector<std::uint32_t>& replica_counts() const {
    return replicas_;
  }
  [[nodiscard]] std::size_t min_replicas() const;

  // Counter maintenance hooks (called by Peer when availability
  // changes; segment replicas only count peers that are online).
  void note_replica_gained(std::size_t segment);
  void note_replicas_all_gained();

  // ------------------------------------------------------- routing hooks

  /// Fast-path delivery: takes the message out of its pool node (always
  /// — the node is reclaimed even when the receiver is offline) and
  /// dispatches it with no codec work. The destination connection and
  /// node id ride in the pool node, so the delivery callback captures
  /// only (swarm peer, node) and fits std::function inline.
  void deliver(net::NodeId from, MessagePool::Node* node);

  /// Oracle delivery: decodes `bytes`, asserts the result equals
  /// `original`, then dispatches the *decoded* message — so what the
  /// receiver sees really did survive the wire format.
  void deliver_checked(net::NodeId from, net::NodeId to,
                       net::Connection& conn, const Message& original,
                       const std::vector<std::uint8_t>& bytes);

  /// Legacy byte-frame delivery (tests inject raw frames through it).
  void deliver(net::NodeId from, net::NodeId to, net::Connection& conn,
               std::vector<std::uint8_t> bytes);

  /// Reports the outcome of a PIECE push from `server` to `client`.
  void notify_piece_outcome(net::NodeId client, net::NodeId server,
                            std::size_t segment,
                            const net::Connection::FetchResult& result);

  /// Announces a departure to every remaining peer and the tracker.
  void broadcast_peer_left(net::NodeId who);

  /// Closes a connection now and destroys it on the next simulator tick —
  /// safe to call from inside one of the connection's own callbacks.
  void dispose_connection(std::unique_ptr<net::Connection> conn);

 private:
  void register_peer_node(Peer* peer);

  net::Network& network_;
  Rng& rng_;
  std::shared_ptr<const core::SegmentIndex> index_;
  std::shared_ptr<const std::string> playlist_text_;
  Tracker tracker_;
  /// Declared before peers_ so queued message nodes outlive the peers
  /// being torn down in ~Swarm.
  MessagePool pool_;
  bool codec_roundtrip_ = false;
  std::vector<std::unique_ptr<Peer>> peers_;
  /// Dense node.value -> Peer* table behind find().
  std::vector<Peer*> by_node_;
  /// Dense node.value -> liveness byte behind node_online(); cleared by
  /// broadcast_peer_left (the single per-departure notification).
  std::vector<std::uint8_t> online_;
  /// Leechers in add order, behind leechers()/all_finished() — replaces
  /// the dynamic_cast scan over peers_.
  std::vector<Leecher*> leecher_list_;
  /// Online replicas per segment, maintained incrementally.
  std::vector<std::uint32_t> replicas_;
  bool brute_force_ = false;
  Seeder* seeder_ = nullptr;
  SwarmStats stats_;
};

}  // namespace vsplice::p2p

// Protocol endpoint shared by seeders and leechers.
//
// A peer owns its availability bitfield, serves PIECE requests subject to
// its upload-slot budget (requests beyond it are CHOKEd, the requester
// retries elsewhere), and answers control-plane messages. All messages
// cross the simulated network serialized through the wire codec; the
// PIECE payload itself travels as a slow-start-capped fluid flow.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.h"
#include "net/connection.h"
#include "net/types.h"
#include "p2p/bitfield.h"
#include "p2p/wire.h"

namespace vsplice::p2p {

class Swarm;

struct PeerConfig {
  /// Concurrent uploads a peer serves before choking new requests. The
  /// paper's "selfish peers" future-work knob: lower = more selfish.
  int max_upload_slots = 5;
};

struct PeerStats {
  std::uint64_t requests_received = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t requests_queued = 0;
  std::uint64_t requests_choked = 0;
  std::uint64_t uploads_aborted = 0;
  Bytes bytes_uploaded = 0;
  std::uint64_t messages_received = 0;
};

class Peer {
 public:
  Peer(Swarm& swarm, net::NodeId node, PeerConfig config);
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;
  virtual ~Peer() = default;

  [[nodiscard]] net::NodeId node() const { return node_; }
  [[nodiscard]] bool online() const { return online_; }
  [[nodiscard]] virtual bool is_seeder() const = 0;

  [[nodiscard]] const Bitfield& have() const { return have_; }
  [[nodiscard]] int active_uploads() const { return active_uploads_; }
  [[nodiscard]] int upload_slots() const { return config_.max_upload_slots; }
  [[nodiscard]] const PeerStats& stats() const { return stats_; }

  /// A control message from `from` arrived over `conn` (owned by the
  /// remote end). Dispatches to the on_* hooks; no codec work.
  virtual void handle_message(net::NodeId from, net::Connection& conn,
                              const Message& message);

  /// Serialized-bytes entry point (tests inject raw frames through it;
  /// the legacy Swarm::deliver overload routes through it too). Decodes
  /// — throwing ParseError on malformed input — then dispatches through
  /// the virtual Message overload above.
  void handle_message(net::NodeId from, net::Connection& conn,
                      const std::vector<std::uint8_t>& bytes);

  /// Swarm notification: `who` left. Subclasses drop per-peer state.
  virtual void on_peer_left(net::NodeId who);

  /// Leaves the swarm: connections die, in-flight transfers abort.
  virtual void leave();

 protected:
  /// Dispatch hooks; the base class serves Request and ignores the rest.
  virtual void on_handshake(net::NodeId from, net::Connection& conn,
                            const HandshakeMsg& msg);
  virtual void on_bitfield(net::NodeId from, net::Connection& conn,
                           const BitfieldMsg& msg);
  virtual void on_have(net::NodeId from, const HaveMsg& msg);
  virtual void on_choke(net::NodeId from, net::Connection& conn);
  virtual void on_request(net::NodeId from, net::Connection& conn,
                          const RequestMsg& msg);

  /// Sends `message` over `conn` from this peer, charging the
  /// connection the exact encoded byte count. On the fast path the
  /// Message variant itself travels through a pool node; in the
  /// swarm's codec_roundtrip mode it is encoded, decoded on delivery,
  /// and asserted equal (the wire-format oracle).
  void send(net::Connection& conn, const Message& message);

  /// `send` with the encoded size precomputed — broadcast fan-out
  /// computes the size once and reuses it for every recipient.
  void send_sized(net::Connection& conn, const Message& message,
                  Bytes wire_size);

  /// Serves a granted request: pushes PIECE header + payload as a flow.
  void serve_piece(net::Connection& conn, const RequestMsg& request);

  /// Pops queued requests whose connection is still alive and serves
  /// them while slots are free.
  void serve_from_queue();

  /// Completion of a PIECE push this peer served: frees the upload
  /// slot, updates stats, notifies the client, refills from the queue.
  void finish_upload(net::NodeId client, std::size_t segment,
                     const net::Connection::FetchResult& result);

  /// Availability mutations route through these so the swarm's
  /// incremental replica counters stay exact; never write have_
  /// directly after construction.
  void mark_have(std::size_t segment);
  void mark_have_all();

  struct PendingRequest {
    net::NodeId client;
    std::uint64_t connection_id = 0;
    RequestMsg request;
    /// Open kServerQueue span while the request waits for a free upload
    /// slot (0 = span tracing off).
    std::uint64_t queue_span = 0;
  };

  Swarm& swarm_;
  net::NodeId node_;
  PeerConfig config_;
  Bitfield have_;
  bool online_ = true;
  int active_uploads_ = 0;
  std::deque<PendingRequest> request_queue_;
  PeerStats stats_;
};

/// A peer that owns the full video from the start and never leaves —
/// the paper's single seeder that "slices the video into multiple
/// segments" and bootstraps every leecher.
class Seeder final : public Peer {
 public:
  Seeder(Swarm& swarm, net::NodeId node, PeerConfig config);

  [[nodiscard]] bool is_seeder() const override { return true; }
  void leave() override;
};

}  // namespace vsplice::p2p

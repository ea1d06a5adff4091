#include "p2p/peer.h"

#include "common/error.h"
#include "common/log.h"
#include "obs/span.h"
#include "p2p/swarm.h"

namespace vsplice::p2p {

namespace {
/// Requests held waiting for a free slot (BitTorrent peers keep the
/// connection open and serve when unchoked rather than refusing). Kept
/// deliberately short: beyond it the peer CHOKEs so excess demand
/// redistributes to other holders instead of serializing behind one
/// busy uplink.
constexpr std::size_t kMaxRequestQueue = 1;
}  // namespace

Peer::Peer(Swarm& swarm, net::NodeId node, PeerConfig config)
    : swarm_{swarm},
      node_{node},
      config_{config},
      have_{swarm.index().count()} {
  require(config_.max_upload_slots >= 1,
          "a peer needs at least one upload slot");
}

void Peer::handle_message(net::NodeId from, net::Connection& conn,
                          const std::vector<std::uint8_t>& bytes) {
  if (!online_) return;
  handle_message(from, conn, decode(bytes));
}

void Peer::handle_message(net::NodeId from, net::Connection& conn,
                          const Message& message) {
  if (!online_) return;
  ++stats_.messages_received;
  switch (type_of(message)) {
    case MessageType::Handshake:
      on_handshake(from, conn, std::get<HandshakeMsg>(message));
      break;
    case MessageType::BitfieldMsg:
      on_bitfield(from, conn, std::get<BitfieldMsg>(message));
      break;
    case MessageType::Have:
      on_have(from, std::get<HaveMsg>(message));
      break;
    case MessageType::Request:
      on_request(from, conn, std::get<RequestMsg>(message));
      break;
    case MessageType::Choke:
      on_choke(from, conn);
      break;
    default:
      // Interested/NotInterested/Unchoke/Cancel/Goodbye need no action
      // in this implementation.
      break;
  }
}

void Peer::on_handshake(net::NodeId from, net::Connection& conn,
                        const HandshakeMsg& msg) {
  if (msg.segment_count != have_.size()) {
    VSPLICE_WARN("peer") << node_.to_string()
                         << ": handshake with mismatched segment count from "
                         << from.to_string();
    return;
  }
  // Reply with our availability so the initiator can schedule against us.
  send(conn, BitfieldMsg{have_});
}

void Peer::on_bitfield(net::NodeId, net::Connection&, const BitfieldMsg&) {}

void Peer::on_have(net::NodeId, const HaveMsg&) {}

void Peer::on_choke(net::NodeId, net::Connection&) {}

void Peer::on_request(net::NodeId from, net::Connection& conn,
                      const RequestMsg& msg) {
  ++stats_.requests_received;
  // The request-send leg of the requester's span chain ends here, at
  // REQUEST arrival (no-op ids when span tracing is off).
  obs::close_span(conn.take_request_span(), swarm_.simulator().now());
  const bool have_it =
      msg.segment < have_.size() && have_.get(msg.segment);
  if (!have_it) {
    ++stats_.requests_choked;
    send(conn, ChokeMsg{});
    return;
  }
  if (active_uploads_ < config_.max_upload_slots) {
    VSPLICE_DEBUG("peer") << node_.to_string() << " serving segment "
                          << msg.segment << " to " << from.to_string();
    if (conn.span_parent() != 0) {
      // Zero queue time, recorded so the server_queue percentiles cover
      // every granted request, not only the queued ones.
      obs::instant_span(obs::SpanKind::kServerQueue,
                        swarm_.simulator().now(), conn.span_parent(),
                        static_cast<std::int64_t>(from.value), msg.segment);
    }
    serve_piece(conn, msg);
    return;
  }
  if (request_queue_.size() < kMaxRequestQueue) {
    // Hold the request; the requester waits on the open connection and
    // is served when a slot frees (BitTorrent-style unchoking).
    ++stats_.requests_queued;
    PendingRequest pending{from, conn.id(), msg};
    if (conn.span_parent() != 0) {
      pending.queue_span = obs::open_span(
          obs::SpanKind::kServerQueue, swarm_.simulator().now(),
          conn.span_parent(), static_cast<std::int64_t>(from.value),
          msg.segment,
          static_cast<std::int64_t>(request_queue_.size()));
    }
    request_queue_.push_back(pending);
    return;
  }
  ++stats_.requests_choked;
  send(conn, ChokeMsg{});
}

void Peer::serve_from_queue() {
  while (active_uploads_ < config_.max_upload_slots &&
         !request_queue_.empty()) {
    const PendingRequest pending = request_queue_.front();
    request_queue_.pop_front();
    net::Connection* conn =
        swarm_.network().find_connection(pending.connection_id);
    if (conn == nullptr || !conn->established() ||
        conn->fetch_in_progress()) {
      // requester hung up (or the connection is busy); skip
      obs::abort_span(pending.queue_span, swarm_.simulator().now());
      continue;
    }
    const Peer* client = swarm_.find(pending.client);
    if (client == nullptr || !client->online()) {
      obs::abort_span(pending.queue_span, swarm_.simulator().now());
      continue;
    }
    obs::close_span(pending.queue_span, swarm_.simulator().now());
    serve_piece(*conn, pending.request);
  }
}

void Peer::send(net::Connection& conn, const Message& message) {
  send_sized(conn, message, static_cast<Bytes>(encoded_size(message)));
}

void Peer::send_sized(net::Connection& conn, const Message& message,
                      Bytes wire_size) {
  const net::NodeId to =
      conn.client() == node_ ? conn.server() : conn.client();
  if (swarm_.codec_roundtrip()) {
    // Oracle mode: serialize now, parse at delivery, assert equality.
    // The charged size is the same wire_size the fast path uses, so the
    // two modes schedule identical network events.
    std::vector<std::uint8_t> bytes = encode(message);
    check_invariant(static_cast<Bytes>(bytes.size()) == wire_size,
                    "encoded_size disagrees with encode() for " +
                        std::string{to_string(type_of(message))});
    conn.send_message(
        node_, wire_size,
        [this, to, &conn, original = message, bytes = std::move(bytes)] {
          swarm_.deliver_checked(node_, to, conn, original, bytes);
        });
    return;
  }
  // Fast path: the Message itself rides through a pool node; no
  // serialize/parse round trip for an in-process delivery. The delivery
  // context travels in the node so the callback is two pointers — small
  // enough for std::function's inline storage (no allocation per send).
  MessagePool::Node* node = swarm_.message_pool().acquire(message);
  node->conn = &conn;
  node->to = to;
  conn.send_message(node_, wire_size,
                    [this, node] { swarm_.deliver(node_, node); });
}

void Peer::serve_piece(net::Connection& conn, const RequestMsg& request) {
  ++active_uploads_;
  ++stats_.requests_served;
  const net::NodeId client =
      conn.client() == node_ ? conn.server() : conn.client();
  const std::size_t segment = request.segment;

  // One arithmetic size for the PIECE header (the old code serialized
  // the header just to measure it).
  const Bytes total =
      static_cast<Bytes>(
          encoded_size(PieceMsg{request.segment, request.length})) +
      static_cast<Bytes>(request.length);
  // The outcome callback is owned by the connection, and the connection
  // by the *client's* download — it can outlive this peer during swarm
  // teardown. Resolve the server through the swarm at fire time instead
  // of capturing `this`; a null lookup means the server is already gone
  // and there is nothing left to settle.
  conn.push(total, [&swarm = swarm_, server = node_, client, segment](
                       const net::Connection::FetchResult& result) {
    if (Peer* self = swarm.find(server)) {
      self->finish_upload(client, segment, result);
    }
  });
}

void Peer::finish_upload(net::NodeId client, std::size_t segment,
                         const net::Connection::FetchResult& result) {
  --active_uploads_;
  stats_.bytes_uploaded += result.bytes_delivered;
  if (result.aborted) ++stats_.uploads_aborted;
  swarm_.notify_piece_outcome(client, node_, segment, result);
  if (online_) serve_from_queue();
}

void Peer::mark_have(std::size_t segment) {
  if (segment < have_.size() && !have_.get(segment)) {
    have_.set(segment);
    swarm_.note_replica_gained(segment);
  }
}

void Peer::mark_have_all() {
  require(have_.empty(), "mark_have_all on a non-empty bitfield");
  have_.set_all();
  swarm_.note_replicas_all_gained();
}

void Peer::on_peer_left(net::NodeId) {}

void Peer::leave() {
  if (!online_) return;
  online_ = false;
  request_queue_.clear();
  // Kill anything still moving to or from this host; per-connection
  // callbacks observe the aborts and clean up on both sides.
  swarm_.network().abort_flows_for(node_);
  swarm_.broadcast_peer_left(node_);
}

Seeder::Seeder(Swarm& swarm, net::NodeId node, PeerConfig config)
    : Peer{swarm, node, config} {
  mark_have_all();
}

void Seeder::leave() {
  throw InvalidArgument{
      "the seeder never leaves the swarm in this model (the paper's "
      "seeder hosts the tracker and the original video)"};
}

}  // namespace vsplice::p2p

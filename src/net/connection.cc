#include "net/connection.h"

#include "common/error.h"
#include "obs/span.h"

namespace vsplice::net {

Connection::Connection(Network& network, Rng& rng, NodeId client,
                       NodeId server)
    : net_{network},
      rng_{rng},
      client_{client},
      server_{server},
      one_way_{network.one_way_delay(client, server)},
      rtt_{network.rtt(client, server)},
      loss_{network.path_loss(client, server)},
      cwnd_{network.tcp(), rtt_, loss_} {
  id_ = net_.register_connection(this);
  require(client != server, "connection endpoints must differ");
  require(rtt_ > Duration::zero(),
          "connection requires a positive path RTT");
}

Connection::~Connection() {
  close();
  net_.unregister_connection(id_);
}

void Connection::connect(std::function<void()> on_established) {
  require(state_ == State::Fresh, "connect() on a non-fresh connection");
  require(static_cast<bool>(on_established),
          "connect needs an on_established callback");
  state_ = State::Connecting;
  const Duration d =
      handshake_delay(net_.tcp(), rtt_, loss_, rng_);
  connect_event_ = net_.simulator().after(
      d, [this, cb = std::move(on_established)] {
        connect_event_ = sim::kInvalidEventId;
        state_ = State::Established;
        last_activity_ = net_.simulator().now();
        cb();
      });
}

void Connection::send_message(NodeId sender, Bytes size,
                              std::function<void()> on_delivered) {
  require(established(), "send_message on a non-established connection");
  require(sender == client_ || sender == server_,
          "sender is not an endpoint of this connection");
  require(size >= 0, "message size must be non-negative");
  require(static_cast<bool>(on_delivered),
          "send_message needs a delivery callback");
  const Duration d = packet_delay(net_.tcp(), one_way_, loss_, rng_);
  last_activity_ = net_.simulator().now();
  // The callback parks in a recycled slot and the delivery event
  // captures only (this, slot), so close() can drop pending deliveries
  // without per-message shared_ptr bookkeeping or heap-allocated
  // captures.
  std::uint32_t slot;
  if (!free_message_slots_.empty()) {
    slot = free_message_slots_.back();
    free_message_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(messages_.size());
    messages_.emplace_back();
  }
  messages_[slot].on_delivered = std::move(on_delivered);
  messages_[slot].event = net_.simulator().after(
      d, [this, slot] { deliver_message(slot); });
}

void Connection::deliver_message(std::uint32_t slot) {
  // Free the slot before running the callback: it may send again
  // (reusing this slot) or close the connection (clearing messages_),
  // so no member is touched after cb().
  std::function<void()> cb = std::move(messages_[slot].on_delivered);
  messages_[slot].event = sim::kInvalidEventId;
  free_message_slots_.push_back(slot);
  cb();
}

void Connection::fetch(Bytes request_size, Bytes response_size,
                       std::function<void(const FetchResult&)> on_done) {
  require(established(), "fetch on a non-established connection");
  require(!fetch_.has_value(), "a fetch is already in flight");
  require(request_size >= 0 && response_size >= 0,
          "fetch sizes must be non-negative");
  require(static_cast<bool>(on_done), "fetch needs an on_done callback");

  const TimePoint now = net_.simulator().now();
  if (now - last_activity_ > net_.tcp().retransmission_timeout) {
    // Congestion window validation: restart slow start after idleness.
    cwnd_.reset_after_idle();
  }
  last_activity_ = now;

  fetch_.emplace();
  fetch_->started = now;
  fetch_->size = response_size;
  fetch_->on_done = std::move(on_done);

  // Request packet travels client -> server first.
  const Duration request_delay =
      packet_delay(net_.tcp(), one_way_, loss_, rng_);
  (void)request_size;  // fits in one packet for every protocol message here
  fetch_->request_event = net_.simulator().after(request_delay, [this] {
    fetch_->request_event = sim::kInvalidEventId;
    start_response_flow();
  });
}

void Connection::push(Bytes size,
                      std::function<void(const FetchResult&)> on_done) {
  require(established(), "push on a non-established connection");
  require(!fetch_.has_value(), "a transfer is already in flight");
  require(size >= 0, "push size must be non-negative");
  require(static_cast<bool>(on_done), "push needs an on_done callback");

  const TimePoint now = net_.simulator().now();
  if (now - last_activity_ > net_.tcp().retransmission_timeout) {
    cwnd_.reset_after_idle();
  }
  last_activity_ = now;

  fetch_.emplace();
  fetch_->started = now;
  fetch_->size = size;
  fetch_->on_done = std::move(on_done);
  if (span_parent_ != 0) {
    // A granted segment request: the PIECE payload starts flowing now.
    span_transfer_ = obs::open_span(
        obs::SpanKind::kPieceTransfer, now, span_parent_,
        static_cast<std::int64_t>(client_.value), span_segment_, size);
  }
  start_response_flow();
}

void Connection::start_response_flow() {
  FlowCallbacks callbacks;
  callbacks.on_complete = [this] {
    fetch_->flow = FlowId{};
    finish_fetch(/*aborted=*/false, fetch_->size);
  };
  callbacks.on_abort = [this](Bytes delivered) {
    if (!fetch_.has_value()) return;  // aborted by close() itself
    fetch_->flow = FlowId{};
    finish_fetch(/*aborted=*/true, delivered);
  };
  fetch_->flow = net_.start_flow(server_, client_, fetch_->size,
                                 cwnd_.rate(), std::move(callbacks));
  schedule_ramp();
}

void Connection::schedule_ramp() {
  if (cwnd_.at_ceiling()) return;
  fetch_->ramp_event = net_.simulator().after(rtt_, [this] {
    fetch_->ramp_event = sim::kInvalidEventId;
    cwnd_.on_round_trip();
    if (fetch_->flow.valid()) net_.set_flow_cap(fetch_->flow, cwnd_.rate());
    schedule_ramp();
  });
}

Rate Connection::transfer_rate() const {
  if (!fetch_.has_value() || !fetch_->flow.valid()) return Rate::zero();
  return net_.flow_rate(fetch_->flow);
}

void Connection::cancel_tracked_events() {
  auto& sim = net_.simulator();
  if (connect_event_ != sim::kInvalidEventId) {
    sim.cancel(connect_event_);
    connect_event_ = sim::kInvalidEventId;
  }
  // Cancelled deliveries have their callbacks destroyed right here
  // (message nodes a callback held stay checked out of the sender's
  // MessagePool — see message_pool.h for why that leak is deliberate).
  for (PendingMessage& pending : messages_) {
    if (pending.event != sim::kInvalidEventId) sim.cancel(pending.event);
  }
  messages_.clear();
  free_message_slots_.clear();
}

void Connection::finish_fetch(bool aborted, Bytes delivered) {
  check_invariant(fetch_.has_value(), "finish_fetch without a fetch");
  auto& sim = net_.simulator();
  if (fetch_->ramp_event != sim::kInvalidEventId) {
    sim.cancel(fetch_->ramp_event);
  }
  if (fetch_->request_event != sim::kInvalidEventId) {
    sim.cancel(fetch_->request_event);
  }
  FetchResult result;
  result.bytes_delivered = delivered;
  result.elapsed = sim.now() - fetch_->started;
  result.aborted = aborted;
  auto on_done = std::move(fetch_->on_done);
  fetch_.reset();
  last_activity_ = sim.now();
  if (span_transfer_ != 0) {
    obs::set_span_attr(span_transfer_, delivered);
    if (aborted) {
      obs::abort_span(span_transfer_, sim.now());
    } else {
      obs::close_span(span_transfer_, sim.now());
    }
    span_transfer_ = 0;
  }
  on_done(result);
}

void Connection::close() {
  if (state_ == State::Closed) return;
  state_ = State::Closed;
  cancel_tracked_events();
  if (span_request_ != 0) {
    // The REQUEST never reached the server (or was abandoned before the
    // grant); record the send leg as aborted.
    obs::abort_span(span_request_, net_.simulator().now());
    span_request_ = 0;
  }
  if (fetch_.has_value()) {
    // Detach the flow first so its on_abort sees no active fetch, then
    // report the abort to the caller ourselves.
    const FlowId flow = fetch_->flow;
    auto& sim = net_.simulator();
    if (fetch_->ramp_event != sim::kInvalidEventId)
      sim.cancel(fetch_->ramp_event);
    if (fetch_->request_event != sim::kInvalidEventId)
      sim.cancel(fetch_->request_event);
    auto on_done = std::move(fetch_->on_done);
    const TimePoint started = fetch_->started;
    const Bytes size = fetch_->size;
    fetch_.reset();
    Bytes delivered = 0;
    if (flow.valid() && net_.flow_active(flow)) {
      delivered = size - net_.flow_remaining(flow);
      net_.abort_flow(flow);
    }
    if (span_transfer_ != 0) {
      // Same bytes the abort reports to the caller below.
      obs::set_span_attr(span_transfer_, delivered);
      obs::abort_span(span_transfer_, sim.now());
      span_transfer_ = 0;
    }
    FetchResult result;
    result.bytes_delivered = delivered;
    result.elapsed = sim.now() - started;
    result.aborted = true;
    if (on_done) on_done(result);
  }
}

}  // namespace vsplice::net

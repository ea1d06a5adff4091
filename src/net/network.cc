#include "net/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/profiler.h"

namespace vsplice::net {

namespace {
// A flow is done when less than this many bytes remain; absorbs the
// microsecond rounding of completion times.
constexpr double kDoneTolerance = 1e-3;

// flow_order_ tombstone: the flow that held this position is gone.
constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
}  // namespace

Network::Network(sim::Simulator& sim, TcpParams tcp)
    : sim_{sim}, tcp_{tcp} {
  // Link 0 is the hub trunk; infinite = non-blocking switch.
  link_capacity_.push_back(Rate::infinity());
  effective_capacity_.push_back(Rate::infinity());
  link_flows_.emplace_back();
  link_mark_.push_back(0);
  link_remap_mark_.push_back(0);
  link_compact_.push_back(0);
}

NodeId Network::add_node(const NodeSpec& spec) {
  require(spec.loss >= 0.0 && spec.loss < 1.0,
          "node loss must be in [0, 1)");
  require(!spec.one_way_delay.is_negative(),
          "node delay must be non-negative");
  const NodeId id{static_cast<std::uint32_t>(nodes_.size())};
  nodes_.push_back(spec);
  for (const Rate capacity : {spec.uplink, spec.downlink}) {
    link_capacity_.push_back(capacity);
    effective_capacity_.push_back(capacity);
    link_flows_.emplace_back();
    link_mark_.push_back(0);
    link_remap_mark_.push_back(0);
    link_compact_.push_back(0);
  }
  uploaded_.push_back(0.0);
  downloaded_.push_back(0.0);
  return id;
}

namespace {
/// Out-of-line failure path: these accessors run on every flow update
/// and message send, so the passing path must not format the id.
[[noreturn]] void throw_unknown_node(NodeId id) {
  throw InvalidArgument{"unknown node " + id.to_string()};
}
}  // namespace

const NodeSpec& Network::node(NodeId id) const {
  if (id.value >= nodes_.size()) throw_unknown_node(id);
  return nodes_[id.value];
}

LinkId Network::uplink_of(NodeId id) const {
  if (id.value >= nodes_.size()) throw_unknown_node(id);
  return LinkId{1 + 2 * id.value};
}

LinkId Network::downlink_of(NodeId id) const {
  if (id.value >= nodes_.size()) throw_unknown_node(id);
  return LinkId{2 + 2 * id.value};
}

Rate Network::derated_capacity(LinkId link, std::size_t flows) const {
  const Rate raw = link_capacity_[link.value];
  if (tcp_.parallel_loss_factor <= 0.0 || flows <= 1 || raw.is_infinite())
    return raw;
  const double factor =
      1.0 + tcp_.parallel_loss_factor * static_cast<double>(flows - 1);
  return raw / factor;
}

void Network::set_hub_capacity(Rate capacity) {
  require(capacity >= Rate::zero(), "hub capacity must be non-negative");
  link_capacity_[0] = capacity;
  effective_capacity_[0] = capacity;
  // The old constraint may have throttled any flow (and while finite,
  // the trunk couples every flow into one component anyway): rescan all.
  pending_full_ = true;
  reallocate();
}

void Network::set_node_bandwidth(NodeId id, Rate uplink, Rate downlink) {
  require(uplink >= Rate::zero() && downlink >= Rate::zero(),
          "bandwidth must be non-negative");
  nodes_[id.value].uplink = uplink;
  nodes_[id.value].downlink = downlink;
  const LinkId up = uplink_of(id);
  const LinkId down = downlink_of(id);
  link_capacity_[up.value] = uplink;
  link_capacity_[down.value] = downlink;
  effective_capacity_[up.value] = uplink;  // uplinks are never derated
  effective_capacity_[down.value] =
      derated_capacity(down, link_flows_[down.value].size());
  // Capacity changed: flows on these links must be recomputed even if
  // the new capacity is infinite (the old one may have throttled them).
  seed_force_links_.push_back(up.value);
  seed_force_links_.push_back(down.value);
  reallocate();
}

Duration Network::one_way_delay(NodeId a, NodeId b) const {
  return node(a).one_way_delay + node(b).one_way_delay;
}

Duration Network::rtt(NodeId a, NodeId b) const {
  return one_way_delay(a, b) * 2.0;
}

double Network::path_loss(NodeId a, NodeId b) const {
  return 1.0 - (1.0 - node(a).loss) * (1.0 - node(b).loss);
}

void Network::link_flow(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  const std::uint32_t up = uplink_of(flow.src).value;
  const std::uint32_t down = downlink_of(flow.dst).value;
  auto& up_list = link_flows_[up];
  flow.up_pos = static_cast<std::uint32_t>(up_list.size());
  up_list.push_back(slot);
  auto& down_list = link_flows_[down];
  flow.down_pos = static_cast<std::uint32_t>(down_list.size());
  down_list.push_back(slot);
  effective_capacity_[down] =
      derated_capacity(LinkId{down}, down_list.size());
  seed_links_.push_back(up);
  seed_links_.push_back(down);
}

void Network::unlink_flow(const Flow& flow) {
  const std::uint32_t up = uplink_of(flow.src).value;
  const std::uint32_t down = downlink_of(flow.dst).value;
  auto& up_list = link_flows_[up];
  up_list[flow.up_pos] = up_list.back();
  up_list.pop_back();
  if (flow.up_pos < up_list.size())
    flows_[up_list[flow.up_pos]].up_pos = flow.up_pos;
  auto& down_list = link_flows_[down];
  down_list[flow.down_pos] = down_list.back();
  down_list.pop_back();
  if (flow.down_pos < down_list.size())
    flows_[down_list[flow.down_pos]].down_pos = flow.down_pos;
  effective_capacity_[down] =
      derated_capacity(LinkId{down}, down_list.size());
  seed_links_.push_back(up);
  seed_links_.push_back(down);
}

std::uint32_t Network::find_slot(FlowId id) const {
  const auto slot = static_cast<std::uint32_t>(id.value >> 32);
  if (slot >= flows_.size() ||
      flow_generation_[slot] != static_cast<std::uint32_t>(id.value)) {
    return kNoSlot;  // finished, aborted, or never issued
  }
  return slot;
}

FlowId Network::flow_id(std::uint32_t slot) const {
  return FlowId{(static_cast<std::uint64_t>(slot) << 32) |
                flow_generation_[slot]};
}

Network::Flow Network::release_slot(std::uint32_t slot) {
  flow_order_[flows_[slot].order_pos] = kNoSlot;
  ++order_garbage_;
  if (order_garbage_ > flow_order_.size() - order_garbage_) {
    // Stable compaction: start order survives, positions are rewritten.
    std::size_t live = 0;
    for (const std::uint32_t s : flow_order_) {
      if (s == kNoSlot) continue;
      flows_[s].order_pos = static_cast<std::uint32_t>(live);
      flow_order_[live++] = s;
    }
    flow_order_.resize(live);
    order_garbage_ = 0;
  }
  // Bump the generation so the outstanding id goes stale, then recycle
  // the slot (connection-registry-style freelist).
  ++flow_generation_[slot];
  free_flow_slots_.push_back(slot);
  return std::exchange(flows_[slot], Flow{});
}

FlowId Network::start_flow(NodeId src, NodeId dst, Bytes size, Rate cap,
                           FlowCallbacks callbacks) {
  require(src != dst, "flow endpoints must differ");
  require(size >= 0, "flow size must be non-negative");
  require(static_cast<bool>(callbacks.on_complete),
          "flow needs an on_complete callback");
  (void)node(src);
  (void)node(dst);

  std::uint32_t slot;
  if (!free_flow_slots_.empty()) {
    slot = free_flow_slots_.back();
    free_flow_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
    // Generation starts at 1, so an id is never 0 and FlowId{} never
    // resolves.
    flow_generation_.push_back(1);
  }
  ++stats_.flows_started;

  Flow& flow = flows_[slot];
  flow.src = src;
  flow.dst = dst;
  flow.started = sim_.now();
  flow.last_advanced = sim_.now();
  flow.total = static_cast<double>(size);
  flow.remaining = static_cast<double>(size);
  flow.cap = cap;
  flow.callbacks = std::move(callbacks);
  flow.order_pos = static_cast<std::uint32_t>(flow_order_.size());
  flow_order_.push_back(slot);
  link_flow(slot);
  seed_flows_.push_back(slot);
  reallocate();
  return flow_id(slot);
}

void Network::set_flow_cap(FlowId id, Rate cap) {
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return;
  Flow& flow = flows_[slot];
  // A raise on a flow running below its old cap changes no rate, in
  // either reallocation mode: that cap never set a round's level (a
  // binding cap fixes its flow in that round, at exactly the cap) and
  // never fixed the flow (the cap pass precedes the bottleneck pass),
  // so every progressive-filling round repeats bit for bit (DESIGN.md
  // §16). Store it and skip the reallocation.
  const bool noop_raise = cap >= flow.cap && flow.rate < flow.cap;
  flow.cap = cap;
  if (noop_raise) return;
  // The flow itself is always in the component (its links may both be
  // infinite, in which case nobody else is affected).
  seed_flows_.push_back(slot);
  reallocate();
}

Network::AbortedFlow Network::remove_aborted(std::uint32_t slot) {
  Flow& live = flows_[slot];
  settle_flow(live);
  unlink_flow(live);
  if (live.completion_event != sim::kInvalidEventId)
    sim_.cancel(live.completion_event);
  Flow flow = release_slot(slot);
  ++stats_.flows_aborted;
  const double delivered = std::max(0.0, flow.total - flow.remaining);
  return AbortedFlow{std::move(flow.callbacks),
                     static_cast<Bytes>(delivered)};
}

bool Network::abort_flow(FlowId id) {
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return false;
  AbortedFlow aborted = remove_aborted(slot);
  // Rates are recomputed before the callback runs: on_abort must never
  // observe the departed flow's share still allocated to nobody.
  reallocate();
  if (aborted.callbacks.on_abort) aborted.callbacks.on_abort(aborted.delivered);
  return true;
}

void Network::abort_flows_for(NodeId nodeid) {
  // Remove every matching flow first (in start order), then reallocate
  // ONCE; the owed callbacks run last, in the same order, against the
  // updated table. Removal tombstones flow_order_, so collect first.
  std::vector<std::uint32_t> doomed;
  for (const std::uint32_t slot : flow_order_) {
    if (slot != kNoSlot &&
        (flows_[slot].src == nodeid || flows_[slot].dst == nodeid)) {
      doomed.push_back(slot);
    }
  }
  if (doomed.empty()) return;
  std::vector<AbortedFlow> aborted;
  aborted.reserve(doomed.size());
  for (const std::uint32_t slot : doomed) {
    aborted.push_back(remove_aborted(slot));
  }
  reallocate();
  for (AbortedFlow& flow : aborted) {
    if (flow.callbacks.on_abort) flow.callbacks.on_abort(flow.delivered);
  }
}

bool Network::flow_active(FlowId id) const {
  return find_slot(id) != kNoSlot;
}

Rate Network::flow_rate(FlowId id) const {
  const std::uint32_t slot = find_slot(id);
  return slot == kNoSlot ? Rate::zero() : flows_[slot].rate;
}

Bytes Network::flow_remaining(FlowId id) const {
  const std::uint32_t slot = find_slot(id);
  if (slot == kNoSlot) return 0;
  const Flow& flow = flows_[slot];
  return static_cast<Bytes>(
      std::max(0.0, flow.remaining - accrued_bytes(flow)));
}

double Network::accrued_bytes(const Flow& flow) const {
  if (flow.rate.is_zero()) return 0.0;
  // An infinite rate delivers everything the instant it is granted —
  // even at dt = 0, or the zero-delay completion event would find the
  // bytes still in flight and reschedule itself forever.
  if (flow.rate.is_infinite()) return flow.remaining;
  const Duration dt = sim_.now() - flow.last_advanced;
  if (dt.is_zero()) return 0.0;
  return std::min(flow.remaining,
                  flow.rate.bytes_per_second() * dt.as_seconds());
}

double Network::accrued_on_link(LinkId link) const {
  const auto& list = link_flows_[link.value];
  if (list.empty()) return 0.0;
  // Sum in start order: the per-link index is swap-remove-unordered,
  // and the accumulation order must not depend on it.
  query_scratch_.assign(list.begin(), list.end());
  std::sort(query_scratch_.begin(), query_scratch_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return flows_[a].order_pos < flows_[b].order_pos;
            });
  double sum = 0.0;
  for (const std::uint32_t slot : query_scratch_)
    sum += accrued_bytes(flows_[slot]);
  return sum;
}

Bytes Network::uploaded_by(NodeId id) const {
  require(id.value < uploaded_.size(), "unknown node");
  return static_cast<Bytes>(uploaded_[id.value] +
                            accrued_on_link(uplink_of(id)));
}

Bytes Network::downloaded_by(NodeId id) const {
  require(id.value < downloaded_.size(), "unknown node");
  return static_cast<Bytes>(downloaded_[id.value] +
                            accrued_on_link(downlink_of(id)));
}

double Network::bytes_delivered() const {
  double total = stats_.bytes_delivered;
  for (const std::uint32_t slot : flow_order_) {
    if (slot != kNoSlot) total += accrued_bytes(flows_[slot]);
  }
  return total;
}

void Network::credit_transfer(const Flow& flow, double bytes) {
  uploaded_[flow.src.value] += bytes;
  downloaded_[flow.dst.value] += bytes;
  stats_.bytes_delivered += bytes;
}

void Network::settle_flow(Flow& flow) {
  const TimePoint now = sim_.now();
  const Duration dt = now - flow.last_advanced;
  flow.last_advanced = now;
  if (flow.rate.is_zero()) return;
  double moved;
  if (flow.rate.is_infinite()) {
    // Mirrors accrued_bytes: delivered the instant the rate was
    // granted, even when no simulated time has passed since.
    moved = flow.remaining;
  } else {
    if (dt.is_zero()) return;
    moved = std::min(flow.remaining,
                     flow.rate.bytes_per_second() * dt.as_seconds());
  }
  if (moved == 0.0) return;
  flow.remaining -= moved;
  credit_transfer(flow, moved);
  ++stats_.flows_settled;
}

void Network::compute_effective_capacities() {
  scratch_capacity_.assign(link_capacity_.begin(), link_capacity_.end());
  if (tcp_.parallel_loss_factor <= 0.0 || active_flow_count() == 0) return;
  // Count concurrent flows per downlink (link ids 2, 4, 6, ... — the
  // receiver side, where a streaming client's parallel downloads pile
  // up) and derate the aggregate goodput accordingly.
  downlink_flows_.assign(link_capacity_.size(), 0);
  for (const std::uint32_t slot : flow_order_) {
    if (slot == kNoSlot) continue;
    ++downlink_flows_[downlink_of(flows_[slot].dst).value];
  }
  for (std::size_t l = 2; l < downlink_flows_.size(); l += 2) {
    const std::uint32_t n = downlink_flows_[l];
    if (n <= 1 || scratch_capacity_[l].is_infinite()) continue;
    const double factor =
        1.0 + tcp_.parallel_loss_factor * static_cast<double>(n - 1);
    scratch_capacity_[l] = scratch_capacity_[l] / factor;
  }
}

void Network::reallocate() {
  VSPLICE_PROFILE_SCOPE("net.reallocate");
  check_invariant(!in_reallocate_, "reallocate is not reentrant");
  in_reallocate_ = true;
  ++stats_.reallocations;
  stats_.flows_active_integral += active_flow_count();

  // A finite hub trunk couples every flow into one component, so the
  // scoped walk would visit everything anyway: force the full path in
  // BOTH modes (this keeps the diagnostic counters mode-independent).
  const bool forced_full =
      pending_full_ || !effective_capacity_[0].is_infinite();
  pending_full_ = false;

  scratch_specs_.clear();
  scratch_slots_.clear();
  bool solved = false;  // a compact subproblem was already allocated
  if (!forced_full) {
    ++stats_.reallocations_scoped;
    // Dirty-set closure (DESIGN.md §16): flows couple only through
    // finite-capacity links, so walk link -> flows -> other links,
    // expanding finite links (plus the force-seeded ones whose raw
    // capacity just changed) until the component is closed.
    const std::uint64_t epoch = ++component_epoch_;
    link_stack_.clear();
    const auto couples = [&](std::uint32_t l) {
      return !effective_capacity_[l].is_infinite();
    };
    const auto push_link = [&](std::uint32_t l) {
      if (link_mark_[l] == epoch) return;
      link_mark_[l] = epoch;
      link_stack_.push_back(l);
    };
    const auto add_flow = [&](std::uint32_t slot) {
      Flow& flow = flows_[slot];
      if (flow.mark == epoch) return;
      flow.mark = epoch;
      scratch_slots_.push_back(slot);
      const std::uint32_t up = uplink_of(flow.src).value;
      const std::uint32_t down = downlink_of(flow.dst).value;
      if (couples(up)) push_link(up);
      if (couples(down)) push_link(down);
    };
    for (const std::uint32_t l : seed_force_links_) push_link(l);
    for (const std::uint32_t l : seed_links_)
      if (couples(l)) push_link(l);
    seed_force_links_.clear();
    seed_links_.clear();
    for (const std::uint32_t slot : seed_flows_) add_flow(slot);
    seed_flows_.clear();
    while (!link_stack_.empty()) {
      const std::uint32_t l = link_stack_.back();
      link_stack_.pop_back();
      for (const std::uint32_t slot : link_flows_[l]) add_flow(slot);
    }
    stats_.flows_retouched += scratch_slots_.size();
    if (!full_reallocation_) {
      if (scratch_slots_.size() > 1) {
        // The allocator fixes rates in index order, so the component
        // must be in start order, exactly like the full path: one pass
        // over the start-ordered list replaces the BFS discovery order.
        scratch_slots_.clear();
        for (const std::uint32_t slot : flow_order_) {
          if (slot != kNoSlot && flows_[slot].mark == epoch)
            scratch_slots_.push_back(slot);
        }
      }
      if (!scratch_slots_.empty()) {
        // Compact subproblem: remap the component's links to dense ids
        // (hub stays 0) and allocate over those alone. Link order is
        // irrelevant to the result — per-round levels are value-mins and
        // the fix order is the (start-ordered) flow order.
        scratch_capacity_.clear();
        scratch_capacity_.push_back(effective_capacity_[0]);
        const auto compact_of = [&](std::uint32_t l) {
          if (link_remap_mark_[l] != epoch) {
            link_remap_mark_[l] = epoch;
            link_compact_[l] =
                static_cast<std::uint32_t>(scratch_capacity_.size());
            scratch_capacity_.push_back(effective_capacity_[l]);
          }
          return link_compact_[l];
        };
        for (const std::uint32_t slot : scratch_slots_) {
          const Flow& flow = flows_[slot];
          scratch_specs_.push_back(
              StarFlowSpec{compact_of(uplink_of(flow.src).value),
                           compact_of(downlink_of(flow.dst).value), flow.cap});
        }
        allocator_.allocate(scratch_specs_, scratch_capacity_,
                            scratch_rates_);
      }
      solved = true;
    } else {
      // Oracle mode: the dirty-set walk above ran for its counters only
      // — flipping VSPLICE_FULL_REALLOC on must change nothing
      // observable but wall time. Discard the component and rescan.
      scratch_slots_.clear();
    }
  } else {
    seed_links_.clear();
    seed_force_links_.clear();
    seed_flows_.clear();
    stats_.flows_retouched += active_flow_count();
  }
  if (!solved) {
    // Independent recomputation of the derated capacities — the scoped
    // path's incrementally-maintained effective_capacity_ must agree
    // (the differential suite compares the resulting rates).
    compute_effective_capacities();
    for (const std::uint32_t slot : flow_order_) {  // start order
      if (slot == kNoSlot) continue;
      const Flow& flow = flows_[slot];
      scratch_specs_.push_back(StarFlowSpec{uplink_of(flow.src).value,
                                            downlink_of(flow.dst).value,
                                            flow.cap});
      scratch_slots_.push_back(slot);
    }
    allocator_.allocate(scratch_specs_, scratch_capacity_, scratch_rates_);
  }

  for (std::size_t i = 0; i < scratch_slots_.size(); ++i) {
    Flow& flow = flows_[scratch_slots_[i]];
    const Rate new_rate = scratch_rates_[i];
    // A completion event stays valid while the rate it was derived from
    // holds: the event time is absolute, and progress accrues at exactly
    // that rate until the next reallocation. Only a rate change (or a
    // flow that needs an event and has none) forces a reschedule — and
    // only then does the flow settle, so both reallocation modes settle
    // the same flows at the same events in the same (start) order.
    const bool needs_event =
        flow.completion_event == sim::kInvalidEventId &&
        (flow.remaining <= kDoneTolerance || !new_rate.is_zero());
    if (new_rate != flow.rate || needs_event) {
      settle_flow(flow);
      flow.rate = new_rate;
      schedule_completion(flow_id(scratch_slots_[i]), flow);
    }
  }
  in_reallocate_ = false;
}

void Network::schedule_completion(FlowId id, Flow& flow) {
  if (flow.completion_event != sim::kInvalidEventId) {
    sim_.cancel(flow.completion_event);
    flow.completion_event = sim::kInvalidEventId;
  }
  ++stats_.completion_reschedules;
  if (flow.remaining <= kDoneTolerance) {
    // Zero-length (or already-drained) flow: complete on the next tick so
    // callers never see a completion inside start_flow.
    flow.completion_event =
        sim_.after(Duration::zero(), [this, id] { finish_flow(id); });
    return;
  }
  if (flow.rate.is_zero()) return;  // stalled; a future reallocation wakes it
  if (flow.rate.is_infinite()) {
    flow.completion_event =
        sim_.after(Duration::zero(), [this, id] { finish_flow(id); });
    return;
  }
  // Exact fractional ETA, rounded up to the next microsecond: after the
  // wait the flow has moved at least `remaining` bytes. (Rounding the
  // *bytes* up instead — the old std::ceil(remaining) — overshot the
  // completion time by up to one byte-time per reschedule.)
  const double seconds = flow.remaining / flow.rate.bytes_per_second();
  const Duration eta = Duration::micros(
      static_cast<std::int64_t>(std::ceil(seconds * 1e6)));
  flow.completion_event =
      sim_.after(eta, [this, id] { finish_flow(id); });
}

std::uint64_t Network::register_connection(Connection* conn) {
  std::uint32_t slot;
  if (!free_connection_slots_.empty()) {
    slot = free_connection_slots_.back();
    free_connection_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(connections_.size());
    connections_.push_back(nullptr);
    // Generation starts at 1, so an id is never 0 and a default/zero id
    // never resolves.
    connection_generation_.push_back(1);
  }
  connections_[slot] = conn;
  return (static_cast<std::uint64_t>(slot) << 32) |
         connection_generation_[slot];
}

void Network::unregister_connection(std::uint64_t id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  if (slot >= connections_.size() ||
      connection_generation_[slot] != static_cast<std::uint32_t>(id)) {
    return;  // stale or unknown id: already recycled
  }
  connections_[slot] = nullptr;
  // Bump the generation so the outstanding id goes stale, then recycle
  // the slot (MessagePool-style freelist).
  ++connection_generation_[slot];
  free_connection_slots_.push_back(slot);
}

Connection* Network::find_connection(std::uint64_t id) const {
  const std::uint32_t slot = static_cast<std::uint32_t>(id >> 32);
  if (slot >= connections_.size() ||
      connection_generation_[slot] != static_cast<std::uint32_t>(id)) {
    return nullptr;
  }
  return connections_[slot];
}

void Network::finish_flow(FlowId id) {
  const std::uint32_t slot = find_slot(id);
  check_invariant(slot != kNoSlot, "completion event for unknown flow");
  Flow& flow = flows_[slot];
  flow.completion_event = sim::kInvalidEventId;
  settle_flow(flow);
  if (flow.remaining > kDoneTolerance) {
    // Rates changed since this event was scheduled; re-derive the ETA.
    schedule_completion(id, flow);
    return;
  }
  unlink_flow(flow);
  const Flow done = release_slot(slot);
  ++stats_.flows_completed;
  // Rates are recomputed before the callback runs: on_complete must
  // never observe the finished flow's share still assigned.
  reallocate();
  done.callbacks.on_complete();
}

}  // namespace vsplice::net

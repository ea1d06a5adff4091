// Star-topology fluid network simulator.
//
// Mirrors the paper's GENI setup: N hosts, each attached by a shaped
// access link (uplink + downlink) to a central hub node, with per-host
// one-way delay and loss probability configured RSpec-style. Transfers are
// fluid flows; whenever the flow set or a rate cap changes, the engine
// recomputes the max-min fair allocation and schedules the next
// completion event.
//
// Hot-path design (see DESIGN.md §9 and §16): the allocation runs through
// the star-specialized StarAllocator over scratch buffers owned by this
// Network, so a reallocation performs no heap allocations in steady
// state. Flows live in a dense slot table with generation-tagged ids and
// a start-ordered slot list, so lookup is O(1) and every walk that must
// be deterministic runs in flow start order without sorting.
// Reallocation is *scoped*: per-link flow indexes let each flow event
// propagate a dirty set through the water-filling coupling graph (flows
// couple only through finite-capacity links) and recompute rates for the
// affected connected component alone — untouched flows keep their rates
// and completion events. A cap raise on a flow running below its old cap
// cannot move any rate and reallocates nothing. Progress accounting is
// *lazy*: each flow carries its own last_advanced timestamp and accrues
// bytes at its constant rate; bytes are settled into the ledgers exactly
// when a flow's rate changes, at completion/abort, and virtually
// (without mutating) in queries. The original full-rescan path is
// retained as a runtime-selectable oracle (set_full_reallocation /
// VSPLICE_FULL_REALLOC=1) and is byte-identical to the scoped path by
// construction: both settle the same flows at the same events in start
// order, and a component's progressive-filling rounds reproduce the
// global rounds' arithmetic exactly (DESIGN.md §16).
//
// Callback contract: on_complete/on_abort are ALWAYS invoked after the
// rate table has been fully recomputed for the post-completion/post-abort
// flow set — a callback that inspects flow_rate()/flow_remaining() or
// starts new flows never observes stale rates. Callbacks may call back
// into the Network (start/abort/cap changes); they are never invoked from
// inside reallocate() itself (enforced by the non-reentrancy invariant).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "net/fair_share.h"
#include "net/tcp_model.h"
#include "net/types.h"
#include "sim/simulator.h"

namespace vsplice::net {

/// Per-host access characteristics (the knobs the paper turns via RSpec).
struct NodeSpec {
  Rate uplink = Rate::infinity();
  Rate downlink = Rate::infinity();
  /// This host's contribution to path latency; the delay between hosts a
  /// and b is a.one_way_delay + b.one_way_delay.
  Duration one_way_delay = Duration::zero();
  /// This host's contribution to path loss; combined as
  /// 1 - (1-loss_a)(1-loss_b).
  double loss = 0.0;
};

struct FlowCallbacks {
  /// Invoked when the last byte arrives (rate table already updated).
  std::function<void()> on_complete;
  /// Invoked if the flow is aborted (peer left, connection closed);
  /// receives the bytes delivered so far. May be null. The rate table is
  /// already updated when this runs.
  std::function<void(Bytes)> on_abort;
};

struct NetworkStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_aborted = 0;
  std::uint64_t reallocations = 0;
  /// Size of the dirty component, summed over all reallocations.
  /// flows_retouched / flows_active_integral is the touched-flows
  /// ratio: < 1 when scoping pays. The walk (and this counter) runs
  /// identically under the full-rescan oracle, so flipping the oracle
  /// on changes nothing observable but wall time.
  std::uint64_t flows_retouched = 0;
  /// Active flows at each reallocation, summed — the work a full rescan
  /// would have done.
  std::uint64_t flows_active_integral = 0;
  /// Lazy settlements that actually moved bytes (a flow's accrued
  /// progress folded into the ledgers because its rate was about to
  /// change, or it completed/aborted).
  std::uint64_t flows_settled = 0;
  /// Completion events actually (re)scheduled; with the incremental
  /// reallocator this is far below reallocations × flows.
  std::uint64_t completion_reschedules = 0;
  /// Bytes settled into the ledgers so far; in-flight accrual since each
  /// flow's last settlement is NOT included — use
  /// Network::bytes_delivered() for the externally consistent total.
  double bytes_delivered = 0.0;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a host to the star. Node ids are dense, starting at 0.
  NodeId add_node(const NodeSpec& spec);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const NodeSpec& node(NodeId id) const;

  /// Reshapes a host's access link mid-run (variable-bandwidth
  /// experiments); in-flight flows are re-allocated immediately.
  void set_node_bandwidth(NodeId id, Rate uplink, Rate downlink);

  /// Selects the full-rescan reallocation oracle (every flow recomputed
  /// on every flow event, as before PR 10). The scoped path is
  /// byte-identical; the oracle exists so differential tests and
  /// VSPLICE_FULL_REALLOC=1 runs can prove it.
  void set_full_reallocation(bool full) { full_reallocation_ = full; }
  [[nodiscard]] bool full_reallocation() const { return full_reallocation_; }

  [[nodiscard]] Duration one_way_delay(NodeId a, NodeId b) const;
  [[nodiscard]] Duration rtt(NodeId a, NodeId b) const;
  [[nodiscard]] double path_loss(NodeId a, NodeId b) const;

  /// Starts a fluid flow of `size` bytes from src to dst with a per-flow
  /// rate cap (the sender's TCP window limit; use Rate::infinity() for
  /// none). src must differ from dst. Completion/abort are reported via
  /// callbacks.
  FlowId start_flow(NodeId src, NodeId dst, Bytes size, Rate cap,
                    FlowCallbacks callbacks);

  /// Updates a flow's cap (slow-start ramp). No-op for finished flows.
  /// A raise on a flow whose rate is below its old cap only stores the
  /// cap: that cap never bound, so no rate can move (DESIGN.md §16).
  void set_flow_cap(FlowId id, Rate cap);

  /// Aborts a flow; returns false if it already finished.
  bool abort_flow(FlowId id);

  /// Aborts every flow with `node` as source or destination (peer churn).
  /// All matching flows are removed first and the rates recomputed once;
  /// the on_abort callbacks then run in flow start order against the
  /// fully updated table.
  void abort_flows_for(NodeId node);

  [[nodiscard]] bool flow_active(FlowId id) const;
  [[nodiscard]] Rate flow_rate(FlowId id) const;
  [[nodiscard]] Bytes flow_remaining(FlowId id) const;
  [[nodiscard]] std::size_t active_flow_count() const {
    return flow_order_.size() - order_garbage_;
  }

  /// Bytes this node has sent / received over completed+partial flows.
  /// Includes each active flow's accrued-but-unsettled progress (a
  /// virtual read; nothing is mutated).
  [[nodiscard]] Bytes uploaded_by(NodeId id) const;
  [[nodiscard]] Bytes downloaded_by(NodeId id) const;

  /// Total bytes delivered across all flows, including in-flight accrual
  /// since each flow's last settlement (stats().bytes_delivered holds
  /// only the settled part).
  [[nodiscard]] double bytes_delivered() const;

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  /// The TCP model every Connection on this network runs (defaults).
  [[nodiscard]] const TcpParams& tcp() const { return tcp_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Bytes held by the flow table (slots, generations, free list and
  /// start-ordered list), per-node accounting, per-link flow indexes
  /// and connection registry (capacity-based; see obs/resource.h).
  /// Reallocation/query scratch is deliberately excluded: its high-water
  /// mark depends on whether the scoped path or the full-rescan oracle
  /// ran, and accounting it would break the scoped/full byte-identity of
  /// ScenarioResult.
  [[nodiscard]] std::uint64_t memory_bytes() const {
    std::uint64_t link_lists = 0;
    for (const auto& list : link_flows_) {
      link_lists += static_cast<std::uint64_t>(list.capacity()) *
                    sizeof(std::uint32_t);
    }
    return static_cast<std::uint64_t>(flows_.capacity()) * sizeof(Flow) +
           static_cast<std::uint64_t>(flow_generation_.capacity() +
                                      free_flow_slots_.capacity() +
                                      flow_order_.capacity()) *
               sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(nodes_.capacity()) * sizeof(NodeSpec) +
           static_cast<std::uint64_t>(link_capacity_.capacity()) *
               sizeof(Rate) +
           static_cast<std::uint64_t>(uploaded_.capacity() +
                                      downloaded_.capacity()) *
               sizeof(double) +
           static_cast<std::uint64_t>(connections_.capacity()) *
               sizeof(void*) +
           static_cast<std::uint64_t>(connection_generation_.capacity() +
                                      free_connection_slots_.capacity()) *
               sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(link_flows_.capacity()) *
               sizeof(std::vector<std::uint32_t>) +
           link_lists +
           static_cast<std::uint64_t>(link_mark_.capacity() +
                                      link_remap_mark_.capacity()) *
               sizeof(std::uint64_t) +
           static_cast<std::uint64_t>(link_compact_.capacity()) *
               sizeof(std::uint32_t);
  }

  /// Connection registry: lets protocol code hold a connection by id and
  /// find out later whether it still exists (e.g. queued requests whose
  /// requester may have hung up in the meantime). Ids are
  /// generation-tagged (slot << 32 | generation, like sim::EventId) so
  /// slots recycle through a freelist while a stale id keeps resolving
  /// to nullptr.
  [[nodiscard]] std::uint64_t register_connection(class Connection* conn);
  void unregister_connection(std::uint64_t id);
  [[nodiscard]] class Connection* find_connection(std::uint64_t id) const;

 private:
  struct Flow {
    NodeId src;
    NodeId dst;
    /// Lazy progress (DESIGN.md §16): `remaining` is exact as of
    /// last_advanced; since then the flow accrues at `rate`. settle_flow
    /// folds the accrual in; accrued_bytes reads it without mutating.
    TimePoint last_advanced;
    double total = 0.0;      // bytes requested at start
    double remaining = 0.0;  // bytes; fractional to avoid rounding drift
    Rate cap = Rate::infinity();
    Rate rate = Rate::zero();
    FlowCallbacks callbacks;
    sim::EventId completion_event = sim::kInvalidEventId;
    /// Position inside the flow's uplink / downlink list in link_flows_
    /// (swap-remove bookkeeping).
    std::uint32_t up_pos = 0;
    std::uint32_t down_pos = 0;
    /// Position inside flow_order_; increases with start order, so it
    /// is accrued_on_link's sort key.
    std::uint32_t order_pos = 0;
    /// Dirty-component epoch stamp (matches component_epoch_ while the
    /// flow is in the component being rebuilt).
    std::uint64_t mark = 0;
  };

  /// A flow removed from the table whose on_abort is still owed.
  struct AbortedFlow {
    FlowCallbacks callbacks;
    Bytes delivered = 0;
  };

  [[nodiscard]] LinkId uplink_of(NodeId id) const;
  [[nodiscard]] LinkId downlink_of(NodeId id) const;

  /// Slot of a live flow, or kNoSlot for a finished/unknown id.
  [[nodiscard]] std::uint32_t find_slot(FlowId id) const;
  [[nodiscard]] FlowId flow_id(std::uint32_t slot) const;
  /// Tombstones the slot's flow_order_ entry (compacting the list once
  /// tombstones outnumber live flows), retires its generation and
  /// recycles it, and returns the flow moved out of the table.
  Flow release_slot(std::uint32_t slot);

  /// Folds a flow's accrued bytes since last_advanced into remaining and
  /// the uploaded/downloaded/bytes_delivered ledgers. Called exactly
  /// when the flow's rate is about to change and at completion/abort —
  /// in start order when several settle at once — so the accumulation
  /// order is identical for the scoped path and the full-rescan oracle.
  void settle_flow(Flow& flow);
  /// Bytes the flow has accrued since last_advanced (virtual read).
  [[nodiscard]] double accrued_bytes(const Flow& flow) const;
  /// Sum of accrued bytes over the flows on one access link, in start
  /// order (deterministic FP accumulation for the query paths).
  [[nodiscard]] double accrued_on_link(LinkId link) const;

  /// Inserts the flow into its two link lists and seeds the dirty set
  /// with both links.
  void link_flow(std::uint32_t slot);
  /// Swap-removes the flow from its two link lists; otherwise as above.
  void unlink_flow(const Flow& flow);

  /// Recomputes fair shares for the dirty component (or every flow, in
  /// full-rescan mode); settles and reschedules completion events only
  /// for flows whose rate changed (or that lack a needed event).
  /// Consumes the pending dirty seeds.
  void reallocate();
  void schedule_completion(FlowId id, Flow& flow);
  /// Removes the flow (settling it and cancelling its event) and records
  /// the abort; the owed on_abort callback is returned for the caller to
  /// run after reallocation.
  AbortedFlow remove_aborted(std::uint32_t slot);
  void finish_flow(FlowId id);
  void credit_transfer(const Flow& flow, double bytes);

  sim::Simulator& sim_;
  const TcpParams tcp_{};
  std::vector<NodeSpec> nodes_;
  /// link 0 = hub trunk (always infinite: a non-blocking switch);
  /// node i has uplink 1+2i, downlink 2+2i.
  std::vector<Rate> link_capacity_;
  /// Dense flow table (DESIGN.md §16): FlowId = slot << 32 | generation,
  /// like sim::EventId and the connection registry, so lookup is O(1)
  /// and a stale id misses. flow_order_ lists the live slots in start
  /// order; removal leaves a kNoSlot tombstone, and the list is
  /// compacted once tombstones outnumber live flows.
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> flow_generation_;
  std::vector<std::uint32_t> free_flow_slots_;
  std::vector<std::uint32_t> flow_order_;
  std::size_t order_garbage_ = 0;
  std::vector<double> uploaded_;
  std::vector<double> downloaded_;
  NetworkStats stats_;
  bool in_reallocate_ = false;
  bool full_reallocation_ = false;

  /// Connection registry: pointer per slot, generation per slot, free
  /// slots (MessagePool-style freelist; see register_connection).
  std::vector<class Connection*> connections_;
  std::vector<std::uint32_t> connection_generation_;
  std::vector<std::uint32_t> free_connection_slots_;

  /// Per-link flow index: the slots of the flows crossing each access
  /// link (unordered; swap-remove keeps removal O(1), up_pos/down_pos
  /// track positions). The hub trunk's entry (link 0) stays empty: an
  /// infinite link couples nothing.
  std::vector<std::vector<std::uint32_t>> link_flows_;

  // Dirty-set seeds, consumed by the next reallocate().
  std::vector<std::uint32_t> seed_links_;        // expand iff coupling
  std::vector<std::uint32_t> seed_force_links_;  // capacity changed: always
  std::vector<std::uint32_t> seed_flows_;        // slots; always in it

  // Component-closure scratch (epoch-stamped marks: no per-event clears).
  std::uint64_t component_epoch_ = 0;
  std::vector<std::uint64_t> link_mark_;    // BFS visited, per link
  std::vector<std::uint64_t> link_remap_mark_;  // compact-id valid, per link
  std::vector<std::uint32_t> link_compact_;     // compact link id, per link
  std::vector<std::uint32_t> link_stack_;       // BFS worklist

  // Reallocation scratch (steady-state: zero allocations per call).
  StarAllocator allocator_;
  std::vector<Rate> scratch_capacity_;
  std::vector<StarFlowSpec> scratch_specs_;
  std::vector<Rate> scratch_rates_;
  std::vector<std::uint32_t> scratch_slots_;    // the solved flows, in order
  // Query scratch: start-ordered accrual reads (see accrued_on_link).
  mutable std::vector<std::uint32_t> query_scratch_;
};

}  // namespace vsplice::net

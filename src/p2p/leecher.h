// A streaming leecher: joins the swarm, fetches the playlist from the
// seeder, and downloads segments with a pluggable pool policy while the
// player consumes them.
//
// The download loop implements Section III: it keeps `pool_size(B, T, W)`
// segments in flight (Eq. 1 when the policy is AdaptivePooling), fetching
// strictly sequentially from the playback frontier. Each segment fetch
// opens a fresh TCP connection to a randomly chosen holder — the paper's
// "many small TCP connections" behaviour that penalizes tiny segments —
// sends a Request, and either receives the PIECE payload as a flow or a
// CHOKE, in which case it retries another holder (backing off when all
// holders are busy).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/playlist.h"
#include "core/pool_policy.h"
#include "core/segment.h"
#include "p2p/peer.h"
#include "sim/simulator.h"
#include "streaming/player.h"

namespace vsplice::p2p {

struct LeecherConfig {
  /// Downloading policy (Eq. 1 or a fixed pool). Required.
  std::shared_ptr<const core::PoolPolicy> policy;
  /// The bandwidth B the policy sees. The paper simulates B on GENI (the
  /// links are shaped, so B is known).
  Rate bandwidth_hint = Rate::kilobytes_per_second(128);
  /// Cap on the tracker's announce response — how many other peers we
  /// learn about (and open control connections to) at join. The paper's
  /// figures keep the BitTorrent-style default; raising it densifies the
  /// control mesh (every HAVE broadcast reaches more neighbours).
  std::size_t announce_max_peers = 50;
};

/// Counters for the scheduling hot path; the scaling benchmark reports
/// these so "how much work did a decision cost" is visible directly.
/// Wall time per decision comes from the profiler's p2p.pick_segment and
/// p2p.pick_holder scopes.
struct SchedulerStats {
  std::uint64_t segment_picks = 0;
  std::uint64_t holder_picks = 0;
  std::uint64_t candidates_scanned = 0;
};

/// Control-plane accounting: one update is one HAVE wire message, a
/// (segment, recipient) availability notification.
struct ControlPlaneStats {
  std::uint64_t have_updates = 0;
};

class Leecher final : public Peer {
 public:
  Leecher(Swarm& swarm, net::NodeId node, PeerConfig peer_config,
          LeecherConfig config, std::uint64_t seed);
  ~Leecher() override;

  /// Joins the swarm now: connects to the seeder, fetches playlist +
  /// peer list, starts the player session clock (startup time includes
  /// all of this, as in Figure 4).
  void join();

  [[nodiscard]] bool is_seeder() const override { return false; }
  [[nodiscard]] bool joined() const { return joined_; }

  /// Player & QoE metrics; valid once the playlist fetch completed.
  [[nodiscard]] bool has_player() const { return player_ != nullptr; }
  [[nodiscard]] const streaming::Player& player() const;
  [[nodiscard]] const streaming::QoeMetrics& metrics() const;
  [[nodiscard]] bool finished() const;

  /// The segment index reconstructed from the parsed playlist.
  [[nodiscard]] const core::SegmentIndex& learned_index() const;

  /// Current adaptive-pool target (for tests and debugging).
  [[nodiscard]] int current_pool_target() const;
  [[nodiscard]] std::size_t downloads_in_flight() const {
    return downloads_.size();
  }
  /// Total transfer size of the segments currently being fetched (zero
  /// until the playlist has been parsed).
  [[nodiscard]] Bytes in_flight_bytes() const;
  [[nodiscard]] const SchedulerStats& scheduler_stats() const {
    return sched_;
  }
  [[nodiscard]] const ControlPlaneStats& control_stats() const {
    return control_stats_;
  }

  /// Bytes held by the scheduling structures: dense availability slots,
  /// holder lists, in-flight bookkeeping, and control
  /// connections (capacity-based; see obs/resource.h).
  [[nodiscard]] std::uint64_t scheduler_memory_bytes() const;

  void handle_message(net::NodeId from, net::Connection& conn,
                      const Message& message) override;
  /// Keep the base class's serialized-bytes entry point visible (tests
  /// drive it with raw frames).
  using Peer::handle_message;
  void on_peer_left(net::NodeId who) override;
  void leave() override;

  /// Swarm routing: outcome of a PIECE transfer we initiated.
  void on_piece_outcome(std::size_t segment, net::NodeId holder,
                        const net::Connection::FetchResult& result);

 private:
  struct Download {
    std::size_t segment = 0;
    net::NodeId holder{};
    std::unique_ptr<net::Connection> conn;
    std::set<net::NodeId> tried;  // holders that choked/failed this round
    TimePoint started;
    sim::EventId retry_event = sim::kInvalidEventId;
    sim::EventId timeout_event = sim::kInvalidEventId;
    /// kSegment root span of this download (0 = span tracing off).
    std::uint64_t span = 0;
    /// Open kChokeWait span while backing off with no viable holder.
    std::uint64_t wait_span = 0;
  };

  void fetch_metadata();
  void on_metadata(const std::string& playlist_text);
  void connect_control(net::NodeId peer);
  void broadcast_have(std::size_t segment);

  void schedule_downloads();
  void start_download(std::size_t segment);
  /// Opens a connection to the next viable holder and sends the request;
  /// if every holder is exhausted, arms the backoff retry.
  void attempt_download(Download& download);
  void request_from(Download& download, net::NodeId holder);
  void arm_request_timeout(Download& download);
  void on_choked_for(std::size_t segment, net::NodeId holder);
  void on_segment_complete(std::size_t segment, Bytes bytes,
                           Duration elapsed);
  void cancel_download(std::size_t segment);

  /// The two scheduling decisions; both count their work into sched_.
  [[nodiscard]] std::optional<std::size_t> next_segment_to_fetch();
  [[nodiscard]] std::optional<net::NodeId> pick_holder(
      std::size_t segment, const std::set<net::NodeId>& excluded);

  /// Dense availability bookkeeping (see the member comments below).
  /// 1 + the slots_ index of a known peer, 0 when unknown: one binary
  /// search over known_peers_ (see the member doc below).
  [[nodiscard]] std::uint32_t slot_plus_one(net::NodeId peer) const;
  [[nodiscard]] const Bitfield* known_have(net::NodeId peer) const;
  [[nodiscard]] Bitfield* known_have(net::NodeId peer);
  Bitfield& ensure_known(net::NodeId peer);
  void store_bitfield(net::NodeId peer, Bitfield have);
  void forget_peer(net::NodeId peer);
  void add_holder(net::NodeId peer, std::size_t segment);
  void add_holder_bits(net::NodeId peer, const Bitfield& have);
  void drop_holder_bits(net::NodeId peer, const Bitfield& have);

  void on_bitfield(net::NodeId from, net::Connection& conn,
                   const BitfieldMsg& msg) override;
  void on_have(net::NodeId from, const HaveMsg& msg) override;
  void on_choke(net::NodeId from, net::Connection& conn) override;

  LeecherConfig config_;
  Rng rng_;
  bool joined_ = false;
  TimePoint join_time_ = TimePoint::origin();
  /// Byte offset of each segment within the seeder's media file,
  /// reconstructed from the playlist byte ranges.
  std::vector<Bytes> segment_offsets_;

  std::unique_ptr<net::Connection> seeder_conn_;
  std::unique_ptr<core::SegmentIndex> index_;
  std::unique_ptr<streaming::Player> player_;

  /// Control connections we initiated, sorted ascending by remote peer
  /// (flat map — every HAVE broadcast walks this once per completed
  /// segment, so iteration is an array scan, not a tree traversal; the
  /// order matches the std::map it replaced, keeping RNG draws and
  /// therefore every figure identical).
  std::vector<std::pair<net::NodeId, std::unique_ptr<net::Connection>>>
      control_;

  /// Availability learned from BITFIELD/HAVE messages. The node → slot
  /// index lives in known_peer_slots_, parallel to the sorted
  /// known_peers_ below: known_peer_slots_[i] is 1 + an index into
  /// slots_ for known_peers_[i]. An O(log k) search over the ~dozens of
  /// peers we actually know replaces the dense node-indexed vector this
  /// evolved from, whose length grew with the highest node id ever
  /// announced — O(swarm) bytes per leecher, the term that pushed
  /// bytes_per_peer from 53 kB at 2,000 peers to 117 kB at 10,000.
  /// Slots are compact — a departed peer's slot goes on the free list —
  /// so slots_ memory tracks peers we actually know. slot_choked_at_ /
  /// slot_choked_ are struct-of-arrays companions to slots_ (the choke
  /// cooldown the scheduler consults per candidate), so the classify
  /// sweep reads parallel arrays instead of probing a node-based map.
  /// Slot state resets on reuse, which matches the map it replaced:
  /// node ids are never recycled, so a stale cooldown for a departed
  /// peer could never be read again anyway.
  std::vector<Bitfield> slots_;
  std::vector<TimePoint> slot_choked_at_;
  std::vector<std::uint8_t> slot_choked_;
  std::vector<std::uint32_t> free_slots_;
  /// Known peers in ascending node order — the iteration order the old
  /// map-based scheduler had, which the brute-force oracle and the
  /// holder lists both preserve so RNG draws are identical.
  std::vector<net::NodeId> known_peers_;
  /// Parallel to known_peers_: 1 + the slots_ index of that peer.
  std::vector<std::uint32_t> known_peer_slots_;
  /// holders_[segment]: known peers holding that segment, ascending.
  /// Valid once the playlist is parsed (rebuilt in on_metadata from any
  /// bitfields that arrived earlier).
  std::vector<std::vector<net::NodeId>> holders_;
  /// Segments with a download in flight (mirror of downloads_ keys), so
  /// the next-segment scan is a word scan over have_ | in_flight_.
  Bitfield in_flight_;
  SchedulerStats sched_;
  ControlPlaneStats control_stats_;

  std::map<std::size_t, Download> downloads_;
  std::unique_ptr<sim::PeriodicTask> tick_;

  /// Last pool target recorded as a kPool instant (-1 = none yet); pool
  /// changes are only interesting as transitions, so equal values are
  /// suppressed.
  int last_pool_emitted_ = -1;
  /// kAnnounce span: join() -> metadata + peer list (0 = tracing off).
  std::uint64_t announce_span_ = 0;
};

}  // namespace vsplice::p2p

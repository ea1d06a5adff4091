#include "p2p/leecher.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "p2p/swarm.h"

namespace {
// Accumulates real wall time spent inside a scheduling decision into
// SchedulerStats::engine_ns. A decision runs microseconds at most, so
// the two clock reads are noise next to either selection path.
class EngineTimer {
 public:
  explicit EngineTimer(std::uint64_t& acc)
      : acc_{acc}, start_{std::chrono::steady_clock::now()} {}
  EngineTimer(const EngineTimer&) = delete;
  EngineTimer& operator=(const EngineTimer&) = delete;
  ~EngineTimer() {
    acc_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::uint64_t& acc_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

namespace vsplice::p2p {

namespace {
// Protocol timings and sizes, the same for every leecher.
/// Wait before retrying when every holder of a segment choked us.
constexpr Duration kChokeBackoff = Duration::millis(250);
/// How long a holder that choked us is avoided when alternatives exist.
constexpr Duration kChokeCooldown = Duration::millis(2000);
/// When a HAVE reveals a fresh holder of a segment we are still waiting
/// on (request not yet granted), probability of switching to it —
/// spreads load off the seeder as content propagates.
constexpr double kRebalanceProbability = 0.5;
/// Give up on an unanswered request after this long and retry another
/// holder. A request can legitimately sit in a busy peer's queue for a
/// while, so this is a backstop, not a reaction time (departed peers
/// are learned about via the swarm's reset broadcast).
constexpr Duration kRequestTimeout = Duration::millis(60'000);
/// Periodic download-loop kick (safety net between events).
constexpr Duration kTick = Duration::millis(500);
/// Approximate size of the metadata/announce request sent to the seeder
/// at startup.
constexpr Bytes kMetadataRequestBytes = 128;
}  // namespace

Leecher::Leecher(Swarm& swarm, net::NodeId node, PeerConfig peer_config,
                 LeecherConfig config, std::uint64_t seed)
    : Peer{swarm, node, peer_config},
      config_{std::move(config)},
      rng_{seed} {
  require(config_.policy != nullptr, "leecher needs a pool policy");
}

Leecher::~Leecher() {
  // Cancel timers that capture `this`; connections cancel their own
  // events in their destructors.
  auto& sim = swarm_.simulator();
  for (auto& [segment, download] : downloads_) {
    if (download.retry_event != sim::kInvalidEventId)
      sim.cancel(download.retry_event);
    if (download.timeout_event != sim::kInvalidEventId)
      sim.cancel(download.timeout_event);
  }
}

void Leecher::join() {
  require(!joined_, "leecher already joined");
  require(swarm_.has_seeder(), "cannot join a swarm without a seeder");
  joined_ = true;
  join_time_ = swarm_.simulator().now();
  announce_span_ = obs::open_span(obs::SpanKind::kAnnounce, join_time_, 0,
                                  static_cast<std::int64_t>(node_.value),
                                  -1);
  fetch_metadata();
}

const streaming::Player& Leecher::player() const {
  require(player_ != nullptr, "player not created yet (still joining)");
  return *player_;
}

const streaming::QoeMetrics& Leecher::metrics() const {
  return player().metrics();
}

bool Leecher::finished() const {
  return player_ != nullptr && player_->finished();
}

const core::SegmentIndex& Leecher::learned_index() const {
  require(index_ != nullptr, "playlist not fetched yet");
  return *index_;
}

Bytes Leecher::in_flight_bytes() const {
  if (!index_) return 0;
  Bytes total = 0;
  for (const auto& [segment, unused] : downloads_) {
    if (segment < index_->count()) total += index_->at(segment).size;
  }
  return total;
}

std::uint64_t Leecher::scheduler_memory_bytes() const {
  // Capacity-based, like every memory_bytes() (see obs/resource.h).
  // Ordered containers are approximated as one red-black node (3
  // pointers + color word) per element plus the payload.
  const std::uint64_t tree_node = 4 * sizeof(void*);
  std::uint64_t bytes =
      static_cast<std::uint64_t>(known_peer_slots_.capacity() +
                                 free_slots_.capacity()) *
          sizeof(std::uint32_t) +
      static_cast<std::uint64_t>(slots_.capacity()) * sizeof(Bitfield) +
      static_cast<std::uint64_t>(slot_choked_at_.capacity()) *
          sizeof(TimePoint) +
      static_cast<std::uint64_t>(slot_choked_.capacity()) *
          sizeof(std::uint8_t) +
      static_cast<std::uint64_t>(known_peers_.capacity()) *
          sizeof(net::NodeId) +
      static_cast<std::uint64_t>(holders_.capacity()) *
          sizeof(std::vector<net::NodeId>) +
      in_flight_.memory_bytes() +
      static_cast<std::uint64_t>(downloads_.size()) *
          (tree_node + sizeof(std::pair<std::size_t, Download>)) +
      static_cast<std::uint64_t>(control_.capacity()) *
          sizeof(std::pair<net::NodeId, std::unique_ptr<net::Connection>>) +
      static_cast<std::uint64_t>(segment_offsets_.capacity()) *
          sizeof(Bytes);
  for (const Bitfield& slot : slots_) bytes += slot.memory_bytes();
  for (const auto& holder_list : holders_) {
    bytes += static_cast<std::uint64_t>(holder_list.capacity()) *
             sizeof(net::NodeId);
  }
  return bytes;
}

int Leecher::current_pool_target() const {
  if (!index_ || !player_) return 0;
  const std::size_t frontier = player_->buffer().frontier();
  if (frontier >= index_->count()) return 0;
  // Equation (1) assumes "the size of each segment is W bytes" — one
  // video-wide W. The no-stall guarantee ("all the k segments have to be
  // downloaded by T seconds") only survives non-uniform segments if W is
  // the LARGEST segment in the playlist, so that is what we plug in.
  // For duration-based splicing W is close to every segment's size; for
  // GOP-based splicing the safe W is the multi-second static-scene GOP,
  // which collapses the pool and strands bandwidth — one of the ways
  // content-driven splicing undermines the formula.
  return config_.policy->pool_size(config_.bandwidth_hint,
                                   player_->buffered_ahead(),
                                   index_->largest_segment());
}

// ------------------------------------------------------------ join phase

void Leecher::fetch_metadata() {
  const net::NodeId seeder = swarm_.seeder_node();
  seeder_conn_ = std::make_unique<net::Connection>(swarm_.network(), rng_,
                                                   node_, seeder);
  seeder_conn_->connect([this] {
    const Bytes playlist_bytes =
        static_cast<Bytes>(swarm_.playlist_text().size());
    seeder_conn_->fetch(
        kMetadataRequestBytes, playlist_bytes,
        [this](const net::Connection::FetchResult& result) {
          if (!online_) return;
          if (result.aborted) {
            // The seeder never leaves; an aborted metadata fetch means we
            // are shutting down.
            return;
          }
          on_metadata(swarm_.playlist_text());
        });
  });
}

void Leecher::on_metadata(const std::string& playlist_text) {
  const core::Playlist playlist = core::parse_playlist(playlist_text);
  index_ = std::make_unique<core::SegmentIndex>(
      core::index_from_playlist(playlist));
  check_invariant(index_->count() == swarm_.index().count(),
                  "playlist disagrees with the seeder's segment index");

  segment_offsets_.clear();
  segment_offsets_.reserve(playlist.entries.size());
  for (const core::PlaylistEntry& entry : playlist.entries) {
    segment_offsets_.push_back(entry.offset);
  }

  // Now that the segment count is known, size the scheduling structures
  // and fold in any bitfields that arrived before the playlist did.
  holders_.assign(index_->count(), {});
  in_flight_ = Bitfield{index_->count()};
  for (net::NodeId peer : known_peers_) {
    add_holder_bits(peer, *known_have(peer));
  }

  // Our own availability bitfield was sized by the base class from the
  // swarm's ground truth; it matches the playlist (checked above).
  streaming::PlayerConfig player_config;
  player_config.trace_id = static_cast<std::int64_t>(node_.value);
  player_ = std::make_unique<streaming::Player>(swarm_.simulator(), *index_,
                                                player_config);
  player_->on_started = [this] { schedule_downloads(); };
  player_->on_resume = [this] { schedule_downloads(); };
  player_->start_session(join_time_);

  // Announce: register with the tracker and learn the current members.
  swarm_.tracker().register_peer(node_);
  Bitfield seeder_all{index_->count()};
  seeder_all.set_all();
  store_bitfield(swarm_.seeder_node(), std::move(seeder_all));
  for (net::NodeId peer : swarm_.tracker().peers_for(
           node_, rng_, config_.announce_max_peers)) {
    if (peer != swarm_.seeder_node()) connect_control(peer);
  }

  tick_ = std::make_unique<sim::PeriodicTask>(
      swarm_.simulator(), kTick, [this] { schedule_downloads(); });
  tick_->start();

  obs::close_span(announce_span_, swarm_.simulator().now());
  announce_span_ = 0;

  schedule_downloads();
}

void Leecher::connect_control(net::NodeId peer) {
  if (peer == node_) return;
  const auto slot = std::lower_bound(
      control_.begin(), control_.end(), peer,
      [](const auto& entry, net::NodeId p) { return entry.first < p; });
  if (slot != control_.end() && slot->first == peer) return;
  auto conn = std::make_unique<net::Connection>(swarm_.network(), rng_,
                                                node_, peer);
  net::Connection* raw = conn.get();
  control_.emplace(slot, peer, std::move(conn));
  raw->connect([this, raw] {
    if (!online_ || !index_) return;
    send(*raw, HandshakeMsg{1, node_.value,
                            static_cast<std::uint32_t>(index_->count())});
    send(*raw, BitfieldMsg{have_});
  });
}

void Leecher::broadcast_have(std::size_t segment) {
  // Per-message fan-out: one message and one size computation, N
  // deliveries (each recipient still gets its own pool node — the
  // queues own their copies independently).
  const Message have{HaveMsg{static_cast<std::uint32_t>(segment)}};
  const Bytes wire_size = static_cast<Bytes>(encoded_size(have));
  for (auto& [peer, conn] : control_) {
    if (conn->established()) {
      send_sized(*conn, have, wire_size);
      ++control_stats_.have_updates;
    }
  }
}

// ------------------------------------------------------ protocol handlers

void Leecher::handle_message(net::NodeId from, net::Connection& conn,
                             const Message& message) {
  if (!online_) return;
  Peer::handle_message(from, conn, message);
}

void Leecher::on_bitfield(net::NodeId from, net::Connection&,
                          const BitfieldMsg& msg) {
  store_bitfield(from, msg.have);
  VSPLICE_DEBUG("leecher") << node_.to_string() << ": bitfield from "
                           << from.to_string() << " (" << msg.have.count()
                           << " segments, " << msg.have.and_count(have_)
                           << " overlapping ours)";
  // A peer that handshakes us is one we can also serve and gossip to;
  // make sure we hold a control channel back.
  connect_control(from);
  schedule_downloads();
}

void Leecher::on_have(net::NodeId from, const HaveMsg& msg) {
  if (!index_ || msg.segment >= index_->count()) return;
  const std::uint32_t segment = msg.segment;
  Bitfield& bf = ensure_known(from);
  const bool had = segment < bf.size() && bf.get(segment);
  bf.set(segment);
  if (!had) add_holder(from, segment);

  // Rebalance: if we are still waiting (not yet granted) for this very
  // segment, sometimes switch to the fresh holder. This is what drains
  // demand off the seeder as copies propagate through the swarm.
  // in_flight_ mirrors downloads_, so the common case (a HAVE for a
  // segment we are not fetching) is one bit test, not a tree search.
  if (in_flight_.get(segment)) {
    const auto download_it = downloads_.find(segment);
    if (download_it != downloads_.end()) {
      Download& download = download_it->second;
      const bool waiting =
          download.conn && !download.conn->fetch_in_progress();
      if (waiting && download.holder != from &&
          rng_.bernoulli(kRebalanceProbability)) {
        request_from(download, from);
      }
    }
  }
  schedule_downloads();
}

// -------------------------------------------------------- download logic

void Leecher::schedule_downloads() {
  VSPLICE_PROFILE_SCOPE("p2p.schedule");
  if (!online_ || !index_ || !player_) return;
  if (player_->buffer().complete()) return;
  const int pool = current_pool_target();
  if (pool != last_pool_emitted_) {
    last_pool_emitted_ = pool;
    obs::instant_span(obs::SpanKind::kPool, swarm_.simulator().now(), 0,
                      static_cast<std::int64_t>(node_.value), -1, pool);
  }
  while (downloads_.size() < static_cast<std::size_t>(pool)) {
    const std::optional<std::size_t> next = next_segment_to_fetch();
    if (!next) break;
    start_download(*next);
  }
}

std::optional<std::size_t> Leecher::next_segment_to_fetch() {
  VSPLICE_PROFILE_SCOPE("p2p.pick_segment");
  const EngineTimer timer{sched_.engine_ns};
  ++sched_.segment_picks;
  const auto& buffer = player_->buffer();
  if (swarm_.brute_force_oracle()) {
    // Retained oracle: linear scan over the whole remaining playlist.
    for (std::size_t i = buffer.frontier(); i < index_->count(); ++i) {
      ++sched_.candidates_scanned;
      if (!buffer.is_downloaded(i) && !downloads_.contains(i)) return i;
    }
    return std::nullopt;
  }
  const std::size_t frontier = buffer.frontier();
  // have_ mirrors the playback buffer's downloaded set and in_flight_
  // mirrors downloads_, so this is one word scan instead of a per-index
  // loop with two lookups each.
  const std::size_t next =
      Bitfield::first_clear_of_union(have_, in_flight_, frontier);
  if (next < index_->count()) return next;
  return std::nullopt;
}

void Leecher::start_download(std::size_t segment) {
  Download& download = downloads_[segment];
  download.segment = segment;
  download.started = swarm_.simulator().now();
  download.span = obs::open_span(obs::SpanKind::kSegment, download.started,
                                 0, static_cast<std::int64_t>(node_.value),
                                 static_cast<std::int64_t>(segment),
                                 index_->at(segment).size);
  in_flight_.set(segment);
  attempt_download(download);
}

std::optional<net::NodeId> Leecher::pick_holder(
    std::size_t segment, const std::set<net::NodeId>& excluded) {
  VSPLICE_PROFILE_SCOPE("p2p.pick_holder");
  const EngineTimer timer{sched_.engine_ns};
  ++sched_.holder_picks;
  const TimePoint now = swarm_.simulator().now();
  std::vector<net::NodeId> fresh;
  std::vector<net::NodeId> cooling;
  const auto classify = [&](net::NodeId peer) {
    ++sched_.candidates_scanned;
    if (excluded.contains(peer)) return;
    // One binary search for the slot serves both the availability check
    // and the choke-cooldown reads.
    const std::uint32_t slot_id = slot_plus_one(peer);
    if (slot_id == 0) return;
    const std::uint32_t slot = slot_id - 1;
    const Bitfield& have = slots_[slot];
    if (segment >= have.size() || !have.get(segment)) return;
    if (swarm_.brute_force_oracle()) {
      // The oracle keeps the original peer-object lookup so its measured
      // cost stays what the pre-optimization code paid.
      const Peer* remote = swarm_.find(peer);
      if (remote == nullptr || !remote->online()) return;
    } else if (!swarm_.node_online(peer)) {
      return;
    }
    const bool cooling_down =
        slot_choked_[slot] != 0 &&
        now - slot_choked_at_[slot] < kChokeCooldown;
    (cooling_down ? cooling : fresh).push_back(peer);
  };
  // Both paths visit candidates in ascending node order — the order the
  // old map iteration had — so the RNG draws below are identical and the
  // oracle and incremental paths stay byte-equivalent.
  if (swarm_.brute_force_oracle()) {
    for (net::NodeId peer : known_peers_) classify(peer);
  } else if (segment < holders_.size()) {
    for (net::NodeId peer : holders_[segment]) classify(peer);
  }
  if (!fresh.empty()) return fresh[rng_.index(fresh.size())];
  if (!cooling.empty()) return cooling[rng_.index(cooling.size())];
  return std::nullopt;
}

void Leecher::attempt_download(Download& download) {
  const std::size_t segment = download.segment;
  auto& sim = swarm_.simulator();
  if (download.timeout_event != sim::kInvalidEventId) {
    sim.cancel(download.timeout_event);
    download.timeout_event = sim::kInvalidEventId;
  }

  const auto holder = pick_holder(segment, download.tried);
  if (!holder) {
    // Everyone with the segment choked us this round; cool off, then
    // try the full holder set again.
    if (download.wait_span == 0) {
      download.wait_span = obs::open_span(
          obs::SpanKind::kChokeWait, sim.now(), download.span,
          static_cast<std::int64_t>(node_.value),
          static_cast<std::int64_t>(segment));
    }
    download.tried.clear();
    download.retry_event =
        sim.after(kChokeBackoff, [this, segment] {
          const auto it = downloads_.find(segment);
          if (it == downloads_.end()) return;
          it->second.retry_event = sim::kInvalidEventId;
          attempt_download(it->second);
        });
    return;
  }

  request_from(download, *holder);
}

void Leecher::request_from(Download& download, net::NodeId holder) {
  const std::size_t segment = download.segment;
  const TimePoint now = swarm_.simulator().now();
  download.holder = holder;
  if (download.wait_span != 0) {
    obs::close_span(download.wait_span, now);
    download.wait_span = 0;
  }
  obs::instant_span(obs::SpanKind::kRequestDecision, now, download.span,
                    static_cast<std::int64_t>(node_.value),
                    static_cast<std::int64_t>(segment),
                    static_cast<std::int64_t>(holder.value));
  if (download.conn) swarm_.dispose_connection(std::move(download.conn));
  download.conn = std::make_unique<net::Connection>(swarm_.network(), rng_,
                                                    node_, holder);
  net::Connection* raw = download.conn.get();
  // The request-send span travels with the connection: the serving peer
  // closes it at REQUEST arrival; Connection::close() aborts it if the
  // request is abandoned first (timeout, choke retry, rebalance).
  raw->set_span_context(
      download.span,
      obs::open_span(obs::SpanKind::kRequestSend, now, download.span,
                     static_cast<std::int64_t>(node_.value),
                     static_cast<std::int64_t>(segment),
                     static_cast<std::int64_t>(holder.value)),
      static_cast<std::int64_t>(segment));
  raw->connect([this, raw, segment] {
    const auto it = downloads_.find(segment);
    if (it == downloads_.end() || it->second.conn.get() != raw) return;
    const core::Segment& seg = index_->at(segment);
    send(*raw, RequestMsg{
                   static_cast<std::uint32_t>(segment),
                   static_cast<std::uint64_t>(segment_offsets_[segment]),
                   static_cast<std::uint64_t>(seg.size)});
  });

  arm_request_timeout(download);
}

void Leecher::arm_request_timeout(Download& download) {
  const std::size_t segment = download.segment;
  download.timeout_event = swarm_.simulator().after(
      kRequestTimeout,
      [this, segment] {
        const auto it = downloads_.find(segment);
        if (it == downloads_.end()) return;
        Download& d = it->second;
        d.timeout_event = sim::kInvalidEventId;
        if (d.conn && d.conn->fetch_in_progress()) {
          // The PIECE payload is flowing; a big segment on a slow shared
          // link legitimately outlives the request timeout. Keep waiting.
          arm_request_timeout(d);
          return;
        }
        VSPLICE_DEBUG("leecher")
            << node_.to_string() << ": request timeout for segment "
            << segment << " from " << d.holder.to_string();
        d.tried.insert(d.holder);
        if (d.conn) swarm_.dispose_connection(std::move(d.conn));
        attempt_download(d);
      });
}

void Leecher::on_choke(net::NodeId from, net::Connection& conn) {
  // Find the request this choke answers: same holder, and not already
  // granted (a granted request has its PIECE flow in progress — a choke
  // can never refer to it). Prefer an exact connection match.
  std::optional<std::size_t> fallback;
  for (auto& [segment, download] : downloads_) {
    if (download.holder != from || !download.conn) continue;
    if (download.conn->fetch_in_progress()) continue;  // granted already
    if (download.conn.get() == &conn) {
      on_choked_for(segment, from);
      return;
    }
    if (!fallback) fallback = segment;
  }
  if (fallback) on_choked_for(*fallback, from);
}

void Leecher::on_choked_for(std::size_t segment, net::NodeId holder) {
  // Record the cooldown in the slot arrays. A holder is always known at
  // choke time (it was picked from holders_), but guard anyway: the map
  // this replaced tolerated unknown peers, whose entries were unreadable
  // (cooldowns are only consulted for known holders).
  if (const std::uint32_t slot_id = slot_plus_one(holder); slot_id != 0) {
    slot_choked_[slot_id - 1] = 1;
    slot_choked_at_[slot_id - 1] = swarm_.simulator().now();
  }
  const auto it = downloads_.find(segment);
  if (it == downloads_.end()) return;
  Download& download = it->second;
  download.tried.insert(holder);
  if (download.conn) swarm_.dispose_connection(std::move(download.conn));
  attempt_download(download);
}

void Leecher::on_piece_outcome(std::size_t segment, net::NodeId holder,
                               const net::Connection::FetchResult& result) {
  if (!online_ || !index_ || !player_) return;
  const auto it = downloads_.find(segment);
  if (it == downloads_.end() || it->second.holder != holder) {
    // Stale: a transfer we already cancelled or reassigned.
    player_->metrics().bytes_wasted += result.bytes_delivered;
    player_->metrics().bytes_downloaded += result.bytes_delivered;
    return;
  }
  Download& download = it->second;
  player_->metrics().bytes_downloaded += result.bytes_delivered;
  if (result.aborted) {
    player_->metrics().bytes_wasted += result.bytes_delivered;
    download.tried.insert(holder);
    if (download.conn) swarm_.dispose_connection(std::move(download.conn));
    attempt_download(download);
    return;
  }
  on_segment_complete(segment, result.bytes_delivered,
                      swarm_.simulator().now() - download.started);
}

void Leecher::on_segment_complete(std::size_t segment, Bytes bytes,
                                  Duration elapsed) {
  const auto it = downloads_.find(segment);
  const TimePoint now = swarm_.simulator().now();
  // Close out the causal chain: verify + buffer insert are instants in
  // this discrete model (no decode latency is simulated), then the
  // kSegment root itself. The root id moves to the player, which emits
  // the playout span when the playhead consumes the segment.
  std::uint64_t root = 0;
  if (it != downloads_.end()) {
    root = it->second.span;
    it->second.span = 0;  // cancel_download must not abort it
  }
  if (root != 0) {
    const auto node_id = static_cast<std::int64_t>(node_.value);
    const auto seg = static_cast<std::int64_t>(segment);
    obs::instant_span(obs::SpanKind::kVerify, now, root, node_id, seg,
                      bytes);
    obs::instant_span(obs::SpanKind::kBufferInsert, now, root, node_id,
                      seg);
    obs::close_span(root, now);
  }
  cancel_download(segment);
  mark_have(segment);
  VSPLICE_DEBUG("leecher") << node_.to_string() << ": segment " << segment
                           << " complete (" << format_bytes(bytes) << " in "
                           << elapsed.to_string() << ")";
  player_->on_segment_downloaded(segment, root);
  broadcast_have(segment);
  schedule_downloads();
}

void Leecher::cancel_download(std::size_t segment) {
  auto node = downloads_.extract(segment);
  if (node.empty()) return;
  if (segment < in_flight_.size()) in_flight_.reset(segment);
  Download& download = node.mapped();
  auto& sim = swarm_.simulator();
  if (download.retry_event != sim::kInvalidEventId)
    sim.cancel(download.retry_event);
  if (download.timeout_event != sim::kInvalidEventId)
    sim.cancel(download.timeout_event);
  if (download.wait_span != 0) obs::abort_span(download.wait_span, sim.now());
  if (download.span != 0) obs::abort_span(download.span, sim.now());
  if (download.conn) swarm_.dispose_connection(std::move(download.conn));
}

// ------------------------------------------------- availability tracking

std::uint32_t Leecher::slot_plus_one(net::NodeId peer) const {
  const auto it =
      std::lower_bound(known_peers_.begin(), known_peers_.end(), peer);
  if (it == known_peers_.end() || *it != peer) return 0;
  return known_peer_slots_[static_cast<std::size_t>(
      it - known_peers_.begin())];
}

const Bitfield* Leecher::known_have(net::NodeId peer) const {
  const std::uint32_t slot_id = slot_plus_one(peer);
  return slot_id == 0 ? nullptr : &slots_[slot_id - 1];
}

Bitfield* Leecher::known_have(net::NodeId peer) {
  const std::uint32_t slot_id = slot_plus_one(peer);
  return slot_id == 0 ? nullptr : &slots_[slot_id - 1];
}

Bitfield& Leecher::ensure_known(net::NodeId peer) {
  const auto it =
      std::lower_bound(known_peers_.begin(), known_peers_.end(), peer);
  const std::size_t pos =
      static_cast<std::size_t>(it - known_peers_.begin());
  if (it != known_peers_.end() && *it == peer) {
    return slots_[known_peer_slots_[pos] - 1];
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = Bitfield{index_ ? index_->count() : 0};
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back(index_ ? index_->count() : 0);
    slot_choked_at_.emplace_back(TimePoint::origin());
    slot_choked_.push_back(0);
  }
  // Fresh occupant, fresh choke state (node ids are never recycled, so
  // this only ever clears a departed peer's leftovers).
  slot_choked_at_[slot] = TimePoint::origin();
  slot_choked_[slot] = 0;
  known_peers_.insert(known_peers_.begin() +
                          static_cast<std::ptrdiff_t>(pos),
                      peer);
  known_peer_slots_.insert(known_peer_slots_.begin() +
                               static_cast<std::ptrdiff_t>(pos),
                           slot + 1);
  return slots_[slot];
}

void Leecher::store_bitfield(net::NodeId peer, Bitfield have) {
  if (Bitfield* existing = known_have(peer)) {
    drop_holder_bits(peer, *existing);
    *existing = std::move(have);
    add_holder_bits(peer, *existing);
    return;
  }
  Bitfield& stored = ensure_known(peer);
  stored = std::move(have);
  add_holder_bits(peer, stored);
}

void Leecher::forget_peer(net::NodeId peer) {
  const auto it =
      std::lower_bound(known_peers_.begin(), known_peers_.end(), peer);
  if (it == known_peers_.end() || *it != peer) return;
  const std::size_t pos =
      static_cast<std::size_t>(it - known_peers_.begin());
  const std::uint32_t slot = known_peer_slots_[pos] - 1;
  drop_holder_bits(peer, slots_[slot]);
  slots_[slot] = Bitfield{};
  free_slots_.push_back(slot);
  known_peers_.erase(it);
  known_peer_slots_.erase(known_peer_slots_.begin() +
                          static_cast<std::ptrdiff_t>(pos));
}

void Leecher::add_holder(net::NodeId peer, std::size_t segment) {
  if (segment >= holders_.size()) return;
  std::vector<net::NodeId>& list = holders_[segment];
  const auto it = std::lower_bound(list.begin(), list.end(), peer);
  if (it != list.end() && *it == peer) return;
  list.insert(it, peer);
}

void Leecher::add_holder_bits(net::NodeId peer, const Bitfield& have) {
  // holders_ is empty before the playlist arrives, so the range guard in
  // add_holder also covers the pre-metadata window (and remote bitfields
  // longer than our index, which the wire layer tolerates).
  have.for_each_set([&](std::size_t segment) { add_holder(peer, segment); });
}

void Leecher::drop_holder_bits(net::NodeId peer, const Bitfield& have) {
  have.for_each_set([&](std::size_t segment) {
    if (segment >= holders_.size()) return;
    std::vector<net::NodeId>& list = holders_[segment];
    const auto it = std::lower_bound(list.begin(), list.end(), peer);
    if (it != list.end() && *it == peer) list.erase(it);
  });
}

// ----------------------------------------------------------------- churn

void Leecher::on_peer_left(net::NodeId who) {
  if (!online_) return;
  forget_peer(who);
  const auto control = std::lower_bound(
      control_.begin(), control_.end(), who,
      [](const auto& entry, net::NodeId p) { return entry.first < p; });
  if (control != control_.end() && control->first == who) {
    swarm_.dispose_connection(std::move(control->second));
    control_.erase(control);
  }
  // Re-route any download that was using the departed peer. Its transfer
  // abort (if one was active) arrives as a stale outcome afterwards.
  std::vector<std::size_t> affected;
  for (auto& [segment, download] : downloads_) {
    if (download.holder == who) affected.push_back(segment);
  }
  for (std::size_t segment : affected) {
    Download& download = downloads_.at(segment);
    download.tried.insert(who);
    if (download.conn) swarm_.dispose_connection(std::move(download.conn));
    attempt_download(download);
  }
}

void Leecher::leave() {
  if (!online_) return;
  online_ = false;
  if (tick_) tick_->stop();
  std::vector<std::size_t> segments;
  segments.reserve(downloads_.size());
  for (auto& [segment, download] : downloads_) segments.push_back(segment);
  for (std::size_t segment : segments) cancel_download(segment);
  for (auto& [peer, conn] : control_) {
    swarm_.dispose_connection(std::move(conn));
  }
  control_.clear();
  if (seeder_conn_) swarm_.dispose_connection(std::move(seeder_conn_));
  swarm_.tracker().unregister_peer(node_);
  swarm_.network().abort_flows_for(node_);
  swarm_.broadcast_peer_left(node_);
}

}  // namespace vsplice::p2p

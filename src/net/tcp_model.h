// Flow-level TCP throughput model.
//
// The paper runs its swarm over Java sockets (real TCP) on GENI links with
// shaped bandwidth, 50/500 ms latency and 5 % loss. At flow level the three
// TCP effects that matter for its findings are:
//
//  1. connection setup cost — one RTT of 3-way handshake before the first
//     byte of the request can be sent, plus a retransmission timeout when
//     the SYN is lost (probability = loss rate, RTO 1 s per RFC 6298);
//  2. slow start — the congestion window starts at IW (10 segments,
//     RFC 6928) and doubles per RTT, so short transfers never reach the
//     link rate. This is why 2-second segments underperform 4-second
//     segments at low bandwidth in Fig. 2;
//  3. the loss-induced steady-state ceiling — the Mathis model
//     throughput <= MSS/RTT * C/sqrt(p), with C = sqrt(3/2). At the
//     paper's parameters (MSS 1460, RTT 100 ms, p 0.05) this is ~80 kB/s
//     per connection, *below* the paper's lowest link rate, which is why
//     downloading several segments in parallel (adaptive pooling)
//     improves utilization.
#pragma once

#include "common/rng.h"
#include "common/units.h"

namespace vsplice::net {

struct TcpParams {
  /// Maximum segment size (payload bytes per TCP segment).
  Bytes mss = 1460;
  /// Initial congestion window in segments (RFC 6928).
  int initial_window_segments = 10;
  /// Constant of the Mathis-form ceiling C*MSS/(RTT*sqrt(p)). The classic
  /// Reno derivation gives sqrt(3/2) ~ 1.22, but modern stacks (CUBIC +
  /// SACK, which the paper's Ubuntu/Java testbed ran) recover from random
  /// loss better than Reno AIMD; the default is calibrated so that a
  /// single connection at the paper's parameters (RTT 100 ms, p = 5%)
  /// tops out around 170 kB/s — above the video bitrate yet well below
  /// the faster link rates, preserving the findings the model must show:
  /// one connection can barely carry real-time video (so large segments
  /// ride a knife edge) and parallel fetches are what restore
  /// utilization on fast links (Section III).
  double mathis_constant = 2.6;
  /// Retransmission timeout applied when connection-setup or request
  /// packets are lost.
  Duration retransmission_timeout = Duration::seconds(1.0);
  /// Slow-start growth factor per RTT (2 = classic doubling).
  double slow_start_growth = 2.0;
};

/// Steady-state throughput ceiling of one TCP connection under random
/// loss `p` on a path with round-trip time `rtt` (Mathis et al., 1997).
/// Infinite when p == 0.
[[nodiscard]] Rate mathis_ceiling(const TcpParams& params, Duration rtt,
                                  double loss);

/// The congestion-window-limited rate after `rtts_elapsed` round trips of
/// slow start: IW * growth^rtts * MSS / RTT.
[[nodiscard]] Rate slow_start_rate(const TcpParams& params, Duration rtt,
                                   double rtts_elapsed);

/// Time for the 3-way handshake: one RTT plus a retransmission timeout
/// for every lost SYN/SYN-ACK (geometric in the loss rate, drawn from
/// `rng`).
[[nodiscard]] Duration handshake_delay(const TcpParams& params, Duration rtt,
                                       double loss, Rng& rng);

/// Delivery delay of one small control packet over the path: one-way
/// latency plus retransmission timeouts for losses.
[[nodiscard]] Duration packet_delay(const TcpParams& params,
                                    Duration one_way_latency, double loss,
                                    Rng& rng);

/// Models one TCP connection's congestion window evolution at RTT
/// granularity. The Connection layer samples this to derive the rate cap
/// it installs on its fluid flow.
class CongestionWindow {
 public:
  CongestionWindow(const TcpParams& params, Duration rtt, double loss);

  /// Current window-limited rate (cwnd/RTT), already clipped to the
  /// Mathis ceiling.
  [[nodiscard]] Rate rate() const;

  /// Advance one RTT of slow start.
  void on_round_trip();

  /// True once the window has reached the loss ceiling; the rate cap no
  /// longer changes and the ramp timer can stop.
  [[nodiscard]] bool at_ceiling() const;

  /// After an idle period longer than the RTO, TCP restarts from the
  /// initial window (RFC 2581 congestion window validation).
  void reset_after_idle();

  [[nodiscard]] Duration rtt() const { return rtt_; }

 private:
  TcpParams params_;
  Duration rtt_;
  Rate ceiling_;
  double window_segments_;
};

}  // namespace vsplice::net

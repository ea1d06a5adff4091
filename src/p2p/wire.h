// The BitTorrent-like wire protocol (the paper: "We implemented our own
// BitTorrent like messaging protocol", Section V).
//
// Framing: u32 total length (including the type byte), u8 message type,
// big-endian payload. Control messages are fully serialized/parsed; the
// PIECE payload itself travels as a fluid flow, so the Piece message
// carries its byte count, not the bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "p2p/bitfield.h"

namespace vsplice::p2p {

enum class MessageType : std::uint8_t {
  Handshake = 1,
  BitfieldMsg = 2,
  Have = 3,
  Interested = 4,
  NotInterested = 5,
  Choke = 6,
  Unchoke = 7,
  Request = 8,
  Piece = 9,
  Cancel = 10,
  Goodbye = 11,
};

[[nodiscard]] const char* to_string(MessageType type);

struct HandshakeMsg {
  static constexpr std::uint32_t kMagic = 0x5653504C;  // "VSPL"
  std::uint16_t version = 1;
  std::uint32_t peer_id = 0;
  std::uint32_t segment_count = 0;
  bool operator==(const HandshakeMsg&) const = default;
};

struct BitfieldMsg {
  Bitfield have;
  bool operator==(const BitfieldMsg&) const = default;
};

struct HaveMsg {
  std::uint32_t segment = 0;
  bool operator==(const HaveMsg&) const = default;
};

struct InterestedMsg {
  bool operator==(const InterestedMsg&) const = default;
};
struct NotInterestedMsg {
  bool operator==(const NotInterestedMsg&) const = default;
};
struct ChokeMsg {
  bool operator==(const ChokeMsg&) const = default;
};
struct UnchokeMsg {
  bool operator==(const UnchokeMsg&) const = default;
};

struct RequestMsg {
  std::uint32_t segment = 0;
  std::uint64_t offset = 0;  // byte offset within the media file
  std::uint64_t length = 0;  // bytes requested
  bool operator==(const RequestMsg&) const = default;
};

struct PieceMsg {
  std::uint32_t segment = 0;
  std::uint64_t length = 0;  // payload bytes that follow as a flow
  bool operator==(const PieceMsg&) const = default;
};

struct CancelMsg {
  std::uint32_t segment = 0;
  bool operator==(const CancelMsg&) const = default;
};

struct GoodbyeMsg {
  bool operator==(const GoodbyeMsg&) const = default;
};

using Message =
    std::variant<HandshakeMsg, BitfieldMsg, HaveMsg, InterestedMsg,
                 NotInterestedMsg, ChokeMsg, UnchokeMsg, RequestMsg,
                 PieceMsg, CancelMsg, GoodbyeMsg>;

[[nodiscard]] MessageType type_of(const Message& message);

/// Upper bound a decoder accepts for one frame's declared length. Far
/// above any message this protocol produces (a bitfield of 8M segments
/// still fits), it exists so a corrupted length field is rejected as a
/// parse error instead of being trusted.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Exact size of `encode(message)` in bytes, computed arithmetically —
/// no serialization. This is what the simulator charges the network for
/// an in-process delivery; a unit test pins it to encode() for every
/// message type.
[[nodiscard]] std::size_t encoded_size(const Message& message);

/// Serializes with framing. The result's size is what the simulator
/// charges the network for the control message.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// Parses one framed message; throws ParseError on malformed input or
/// trailing garbage.
[[nodiscard]] Message decode(std::span<const std::uint8_t> bytes);

}  // namespace vsplice::p2p

#include "p2p/wire.h"

#include "common/bytes_io.h"
#include "common/error.h"

namespace vsplice::p2p {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::Handshake:
      return "handshake";
    case MessageType::BitfieldMsg:
      return "bitfield";
    case MessageType::Have:
      return "have";
    case MessageType::Interested:
      return "interested";
    case MessageType::NotInterested:
      return "not_interested";
    case MessageType::Choke:
      return "choke";
    case MessageType::Unchoke:
      return "unchoke";
    case MessageType::Request:
      return "request";
    case MessageType::Piece:
      return "piece";
    case MessageType::Cancel:
      return "cancel";
    case MessageType::Goodbye:
      return "goodbye";
  }
  return "?";
}

MessageType type_of(const Message& message) {
  struct Visitor {
    MessageType operator()(const HandshakeMsg&) const {
      return MessageType::Handshake;
    }
    MessageType operator()(const BitfieldMsg&) const {
      return MessageType::BitfieldMsg;
    }
    MessageType operator()(const HaveMsg&) const { return MessageType::Have; }
    MessageType operator()(const InterestedMsg&) const {
      return MessageType::Interested;
    }
    MessageType operator()(const NotInterestedMsg&) const {
      return MessageType::NotInterested;
    }
    MessageType operator()(const ChokeMsg&) const {
      return MessageType::Choke;
    }
    MessageType operator()(const UnchokeMsg&) const {
      return MessageType::Unchoke;
    }
    MessageType operator()(const RequestMsg&) const {
      return MessageType::Request;
    }
    MessageType operator()(const PieceMsg&) const {
      return MessageType::Piece;
    }
    MessageType operator()(const CancelMsg&) const {
      return MessageType::Cancel;
    }
    MessageType operator()(const GoodbyeMsg&) const {
      return MessageType::Goodbye;
    }
  };
  return std::visit(Visitor{}, message);
}

std::size_t encoded_size(const Message& message) {
  // Framing: u32 length + u8 type. Payload sizes mirror the encode
  // visitor below field for field.
  constexpr std::size_t kFraming = 5;
  struct Visitor {
    std::size_t operator()(const HandshakeMsg&) const {
      return 4 + 2 + 4 + 4;  // magic, version, peer_id, segment_count
    }
    std::size_t operator()(const BitfieldMsg& m) const {
      return 4 + (m.have.size() + 7) / 8;  // bit count + packed bytes
    }
    std::size_t operator()(const HaveMsg&) const { return 4; }
    std::size_t operator()(const InterestedMsg&) const { return 0; }
    std::size_t operator()(const NotInterestedMsg&) const { return 0; }
    std::size_t operator()(const ChokeMsg&) const { return 0; }
    std::size_t operator()(const UnchokeMsg&) const { return 0; }
    std::size_t operator()(const RequestMsg&) const { return 4 + 8 + 8; }
    std::size_t operator()(const PieceMsg&) const { return 4 + 8; }
    std::size_t operator()(const CancelMsg&) const { return 4; }
    std::size_t operator()(const GoodbyeMsg&) const { return 0; }
  };
  return kFraming + std::visit(Visitor{}, message);
}

std::vector<std::uint8_t> encode(const Message& message) {
  ByteWriter body;
  struct Visitor {
    ByteWriter& w;
    void operator()(const HandshakeMsg& m) const {
      w.put_u32(HandshakeMsg::kMagic);
      w.put_u16(m.version);
      w.put_u32(m.peer_id);
      w.put_u32(m.segment_count);
    }
    void operator()(const BitfieldMsg& m) const {
      w.put_u32(static_cast<std::uint32_t>(m.have.size()));
      const auto packed = m.have.to_bytes();
      w.put_bytes(packed);
    }
    void operator()(const HaveMsg& m) const { w.put_u32(m.segment); }
    void operator()(const InterestedMsg&) const {}
    void operator()(const NotInterestedMsg&) const {}
    void operator()(const ChokeMsg&) const {}
    void operator()(const UnchokeMsg&) const {}
    void operator()(const RequestMsg& m) const {
      w.put_u32(m.segment);
      w.put_u64(m.offset);
      w.put_u64(m.length);
    }
    void operator()(const PieceMsg& m) const {
      w.put_u32(m.segment);
      w.put_u64(m.length);
    }
    void operator()(const CancelMsg& m) const { w.put_u32(m.segment); }
    void operator()(const GoodbyeMsg&) const {}
  };
  std::visit(Visitor{body}, message);

  ByteWriter framed{body.size() + 5};
  framed.put_u32(static_cast<std::uint32_t>(body.size() + 1));
  framed.put_u8(static_cast<std::uint8_t>(type_of(message)));
  framed.put_bytes(body.bytes());
  return framed.take();
}

Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader reader{bytes};
  const std::uint32_t length = reader.get_u32();
  if (length < 1) throw ParseError{"message length must include the type"};
  if (length > kMaxFrameBytes) {
    throw ParseError{"message length " + std::to_string(length) +
                     " exceeds the " + std::to_string(kMaxFrameBytes) +
                     "-byte frame cap"};
  }
  if (reader.remaining() != length) {
    throw ParseError{"message framing mismatch: header says " +
                     std::to_string(length) + ", buffer has " +
                     std::to_string(reader.remaining())};
  }
  const auto type = static_cast<MessageType>(reader.get_u8());
  ByteReader body = reader.sub_reader(length - 1);

  Message message;
  switch (type) {
    case MessageType::Handshake: {
      HandshakeMsg m;
      const std::uint32_t magic = body.get_u32();
      if (magic != HandshakeMsg::kMagic) {
        throw ParseError{"bad handshake magic"};
      }
      m.version = body.get_u16();
      m.peer_id = body.get_u32();
      m.segment_count = body.get_u32();
      message = m;
      break;
    }
    case MessageType::BitfieldMsg: {
      const std::uint32_t size = body.get_u32();
      const auto packed = body.get_bytes(body.remaining());
      message = BitfieldMsg{Bitfield::from_bytes(size, packed)};
      break;
    }
    case MessageType::Have:
      message = HaveMsg{body.get_u32()};
      break;
    case MessageType::Interested:
      message = InterestedMsg{};
      break;
    case MessageType::NotInterested:
      message = NotInterestedMsg{};
      break;
    case MessageType::Choke:
      message = ChokeMsg{};
      break;
    case MessageType::Unchoke:
      message = UnchokeMsg{};
      break;
    case MessageType::Request: {
      RequestMsg m;
      m.segment = body.get_u32();
      m.offset = body.get_u64();
      m.length = body.get_u64();
      message = m;
      break;
    }
    case MessageType::Piece: {
      PieceMsg m;
      m.segment = body.get_u32();
      m.length = body.get_u64();
      message = m;
      break;
    }
    case MessageType::Cancel:
      message = CancelMsg{body.get_u32()};
      break;
    case MessageType::Goodbye:
      message = GoodbyeMsg{};
      break;
    default:
      throw ParseError{"unknown message type " +
                       std::to_string(static_cast<int>(type))};
  }
  if (!body.at_end()) {
    throw ParseError{"trailing bytes after " +
                     std::string{to_string(type)} + " payload"};
  }
  return message;
}

}  // namespace vsplice::p2p

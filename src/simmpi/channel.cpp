#include "simmpi/channel.hpp"

namespace fsim::simmpi {

std::optional<std::vector<std::byte>> Channel::drain() {
  if (state_.queue.empty()) return std::nullopt;
  std::vector<std::byte> packet = std::move(state_.queue.front());
  state_.queue.pop_front();
  state_.pending_bytes -= packet.size();

  // Apply an armed single-bit fault if the cumulative volume counter passes
  // the target inside this packet.
  ChannelFault& fault = state_.fault;
  if (fault.armed && !fault.fired &&
      fault.byte_index < state_.received_bytes + packet.size()) {
    const std::uint64_t off =
        fault.byte_index >= state_.received_bytes
            ? fault.byte_index - state_.received_bytes
            : 0;  // target already passed (late arm): hit the first byte
    util::flip_bit(packet, off * 8 + fault.bit);
    fault.fired = true;
    fault.hit_header = off < kHeaderBytes;
    fault.offset_in_packet = off;
  }
  state_.received_bytes += packet.size();

  // Traffic accounting uses the (possibly corrupted) header's kind field
  // only for classification robustness; fall back to size.
  if (packet.size() >= kHeaderBytes) {
    const MsgHeader h = parse_header(packet);
    state_.stats.header_bytes += kHeaderBytes;
    state_.stats.payload_bytes += packet.size() - kHeaderBytes;
    if (packet.size() == kHeaderBytes &&
        h.msg_kind() == MsgKind::kControl) {
      ++state_.stats.control_messages;
    } else {
      ++state_.stats.data_messages;
    }
  } else {
    state_.stats.header_bytes += packet.size();
    ++state_.stats.control_messages;
  }
  return packet;
}

}  // namespace fsim::simmpi

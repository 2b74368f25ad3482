#include "dataplane/deparser.h"

namespace ndb::dataplane {

packet::Packet deparse(const p4::ir::Program& prog, const PacketState& state) {
    std::size_t total_bits = 0;
    for (const int h : prog.deparse_order) {
        if (state.header_valid(h)) {
            total_bits += static_cast<std::size_t>(
                prog.headers[static_cast<std::size_t>(h)].size_bits);
        }
    }
    const std::size_t header_bytes = (total_bits + 7) / 8;
    packet::Packet out = packet::Packet::zeros(header_bytes + state.payload.size());

    std::size_t cursor = 0;
    for (const int h : prog.deparse_order) {
        if (!state.header_valid(h)) continue;
        const auto& hdr = prog.headers[static_cast<std::size_t>(h)];
        for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
            out.deposit_bits(cursor + static_cast<std::size_t>(hdr.fields[f].offset),
                             state.get({h, static_cast<int>(f)}));
        }
        cursor += static_cast<std::size_t>(hdr.size_bits);
    }
    for (std::size_t i = 0; i < state.payload.size(); ++i) {
        out.set_byte(header_bytes + i, state.payload[i]);
    }
    out.meta = state.meta;
    return out;
}

}  // namespace ndb::dataplane

#include "dataplane/state.h"

#include "util/strings.h"

namespace ndb::dataplane {

const char* parser_verdict_name(ParserVerdict verdict) {
    switch (verdict) {
        case ParserVerdict::accept: return "accept";
        case ParserVerdict::reject: return "reject";
        case ParserVerdict::error_truncated: return "error.PacketTooShort";
        case ParserVerdict::error_loop: return "error.ParserLoop";
    }
    return "?";
}

namespace {

// The slot of a standard metadata field, which reset() writes at a fixed
// width.
FieldSlot standard_slot(const StateLayout& layout, p4::ir::FieldRef ref, int width) {
    const FieldSlot& s = layout.slot(ref);
    if (s.width != width) {
        throw std::invalid_argument("PacketState::set: width mismatch");
    }
    return s;
}

}  // namespace

StateLayout::StateLayout(const p4::ir::Program& prog, bool clobber_meta) {
    headers.reserve(prog.headers.size());
    init_valid.assign((prog.headers.size() + 63) / 64, 0);
    for (std::size_t hi = 0; hi < prog.headers.size(); ++hi) {
        const auto& h = prog.headers[hi];
        HeaderSpan span;
        span.word_begin = word_count;
        span.slot_begin = static_cast<std::uint32_t>(slots.size());
        span.is_metadata = h.is_metadata;
        // Alternate bit pattern models uninitialized device memory: bits
        // 0, 2, 4, ... of every field, so every word but a field's masked top
        // word is 0x5555...5555.
        const bool clobber =
            clobber_meta && h.is_metadata && h.name != "standard_metadata";
        int cursor = 0;  // next bit a streamable header's field must start at
        span.streamable = true;
        for (const auto& f : h.fields) {
            if (f.width < 0) throw std::invalid_argument("Bitvec: negative width");
            span.streamable = span.streamable && f.offset == cursor;
            cursor += f.width;
            slots.push_back({word_count, f.width});
            const std::uint32_t n = slot_words(f.width);
            for (std::uint32_t i = 0; i < n; ++i) {
                const int bits = std::clamp(f.width - 64 * static_cast<int>(i), 0, 64);
                const std::uint64_t mask = bits == 64 ? ~0ull : (1ull << bits) - 1;
                init_words.push_back(clobber ? 0x5555555555555555ull & mask : 0);
            }
            word_count += n;
        }
        span.streamable = span.streamable && cursor == h.size_bits;
        span.word_end = word_count;
        span.slot_end = static_cast<std::uint32_t>(slots.size());
        headers.push_back(span);
        if (h.is_metadata) init_valid[hi / 64] |= std::uint64_t{1} << (hi % 64);
    }
    ingress_port = standard_slot(*this, prog.f_ingress_port, 9);
    packet_length = standard_slot(*this, prog.f_packet_length, 32);
    timestamp = standard_slot(*this, prog.f_timestamp, 48);
}

PacketState::PacketState(std::shared_ptr<const StateLayout> l)
    : layout(std::move(l)), words(layout->init_words), valid(layout->init_valid) {}

PacketState PacketState::initial(const p4::ir::Program& prog,
                                 const packet::PacketMeta& meta,
                                 std::uint32_t packet_len, bool clobber_meta) {
    PacketState st(std::make_shared<const StateLayout>(prog, clobber_meta));
    st.reset(meta, packet_len);
    return st;
}

void PacketState::reset(const packet::PacketMeta& m, std::uint32_t packet_len) {
    const StateLayout& l = *layout;
    meta = m;
    parser_verdict = ParserVerdict::accept;
    cycles = 0;
    exited = false;
    vanished = false;
    payload.clear();
    std::copy(l.init_words.begin(), l.init_words.end(), words.begin());
    std::copy(l.init_valid.begin(), l.init_valid.end(), valid.begin());
    words[l.ingress_port.word] = m.ingress_port & ((1ull << 9) - 1);
    words[l.packet_length.word] = packet_len;
    words[l.timestamp.word] = (m.rx_time_ns / 1000) & ((1ull << 48) - 1);  // usec
}

std::uint64_t PacketState::egress_spec(const p4::ir::Program& prog) const {
    return u64(prog.f_egress_spec);
}

bool PacketState::drop_flagged(const p4::ir::Program& prog) const {
    return egress_spec(prog) == p4::ir::kDropPort;
}

std::string PacketState::summary(const p4::ir::Program& prog) const {
    std::string s = util::format("verdict=%s egress_spec=%llu",
                                 parser_verdict_name(parser_verdict),
                                 static_cast<unsigned long long>(egress_spec(prog)));
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        if (!header_valid(static_cast<int>(h)) || prog.headers[h].is_metadata) continue;
        s += " " + prog.headers[h].name;
    }
    return s;
}

}  // namespace ndb::dataplane

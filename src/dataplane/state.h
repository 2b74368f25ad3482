// Per-packet execution state flowing through the pipeline stages.
//
// Layout.  A PacketState is the packet header vector (PHV) of a PISA/RMT
// target: one contiguous array of 64-bit words holding every field of
// every header (metadata included), plus a bitmap of header-valid flags.
// Where each field lives is fixed per program by a StateLayout, computed
// once per image (dataplane::Image) and shared by every state of it:
//   * a field of width w owns max(1, ceil(w/64)) consecutive words, least
//     significant word first, with the bits above w always zero -- exactly
//     Bitvec::word_span() of the field's value;
//   * fields follow their header's declaration order and headers follow
//     p4::ir::Program::headers, so each header owns one contiguous word
//     span [word_begin, word_end).
// The digest (digest.h) therefore hashes one loop per header span, and
// reset() is one copy of the layout's initial-state template.
//
// Bitvec stays at the API edge: get() hands out a field's value as a Bitvec
// by value and set() takes one (keeping its width-mismatch throw), so the
// interpreter, taps, the fault localizer, expression values and fields wider
// than 64 bits all keep the value type they had.  u64() reads a field of 64
// bits or fewer without building a Bitvec; the compiled engine reads and
// writes `words` directly through offsets it resolved at compile time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "p4/ir.h"
#include "packet/packet.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

enum class ParserVerdict {
    accept,
    reject,            // explicit transition to reject
    error_truncated,   // extract past the end of the packet
    error_loop,        // state-machine cycle guard tripped
};

const char* parser_verdict_name(ParserVerdict verdict);

// Where one field lives in PacketState::words.
struct FieldSlot {
    std::uint32_t word = 0;  // first word
    std::int32_t width = 0;  // bits; the slot holds slot_words(width) words

    friend bool operator==(const FieldSlot&, const FieldSlot&) = default;
};

// Words a field of `width` bits occupies: one per started 64 bits, and one
// for a zero-width field (Bitvec::word_span() keeps one word there too).
inline std::uint32_t slot_words(int width) {
    return width <= 64 ? 1u : static_cast<std::uint32_t>((width + 63) / 64);
}

// One header's share of the layout.
struct HeaderSpan {
    std::uint32_t word_begin = 0;  // [word_begin, word_end) in PacketState::words
    std::uint32_t word_end = 0;
    std::uint32_t slot_begin = 0;  // [slot_begin, slot_end) in StateLayout::slots
    std::uint32_t slot_end = 0;
    bool is_metadata = false;      // always valid and always digested
    // The fields tile [0, size_bits) in declaration order, so extract and
    // deparse can stream them bit-sequentially instead of addressing the
    // buffer per field.
    bool streamable = false;
};

// The per-program word layout plus the initial-state template reset()
// copies.  A pure function of (program, clobber_meta); it keeps no
// reference to the program, so states (and tap copies) may outlive it.
struct StateLayout {
    // Throws std::invalid_argument when the program's standard metadata does
    // not have the widths reset() writes (ingress_port 9, packet_length 32,
    // timestamp 48 bits).
    StateLayout(const p4::ir::Program& prog, bool clobber_meta);

    std::vector<HeaderSpan> headers;  // parallel to Program::headers
    std::vector<FieldSlot> slots;     // every field, header-major
    std::uint32_t word_count = 0;

    // The state reset() starts from: metadata headers valid, every other
    // header invalid; all fields zero except user metadata under
    // `clobber_meta`, which carries the alternating-bit pattern that models
    // uninitialized device memory.
    std::vector<std::uint64_t> init_words;
    std::vector<std::uint64_t> init_valid;  // bit h of word h/64 = header h

    // Standard metadata fields reset() writes per packet.
    FieldSlot ingress_port;
    FieldSlot packet_length;
    FieldSlot timestamp;

    // Bounds-checked slot of `ref` (std::out_of_range otherwise).
    const FieldSlot& slot(p4::ir::FieldRef ref) const {
        if (ref.header < 0 || static_cast<std::size_t>(ref.header) >= headers.size()) {
            throw std::out_of_range("PacketState: header index out of range");
        }
        const HeaderSpan& span = headers[static_cast<std::size_t>(ref.header)];
        if (ref.field < 0 ||
            static_cast<std::uint32_t>(ref.field) >= span.slot_end - span.slot_begin) {
            throw std::out_of_range("PacketState: field index out of range");
        }
        return slots[span.slot_begin + static_cast<std::uint32_t>(ref.field)];
    }
};

// The parsed representation plus metadata; one per packet in flight.
struct PacketState {
    std::shared_ptr<const StateLayout> layout;
    std::vector<std::uint64_t> words;      // every field, laid out by `layout`
    std::vector<std::uint64_t> valid;      // header-valid bitmap
    std::vector<std::uint8_t> payload;     // bytes beyond the parsed headers
    packet::PacketMeta meta;
    ParserVerdict parser_verdict = ParserVerdict::accept;
    std::uint64_t cycles = 0;  // accumulated processing cost
    bool exited = false;       // an `exit` statement fired
    bool vanished = false;     // injected fault: packet silently lost here

    // An empty state with no layout: holds no fields at all.
    PacketState() = default;

    // A state sized for `layout`, holding its template (call reset() to
    // stamp a packet's standard metadata).
    explicit PacketState(std::shared_ptr<const StateLayout> layout);

    // Builds the initial state for `prog` over a layout of its own: metadata
    // headers valid and zeroed, standard metadata populated from `meta`.
    // `clobber_meta` simulates targets that do not zero user metadata.
    static PacketState initial(const p4::ir::Program& prog,
                               const packet::PacketMeta& meta,
                               std::uint32_t packet_len,
                               bool clobber_meta = false);

    // Re-initializes the state in place for the next packet: copies the
    // layout's template, then writes the standard metadata.  Equivalent to
    // initial() under the same layout, reusing every allocation.
    void reset(const packet::PacketMeta& m, std::uint32_t packet_len);

    // Field value by reference (bounds-checked; std::out_of_range).
    util::Bitvec get(p4::ir::FieldRef ref) const { return load(slot_of(ref)); }
    // Throws std::invalid_argument when value's width is not the field's.
    void set(p4::ir::FieldRef ref, const util::Bitvec& value) {
        store(slot_of(ref), value);
    }
    // The low 64 bits of a field, without building a Bitvec: the whole
    // value for fields of 64 bits or fewer.
    std::uint64_t u64(p4::ir::FieldRef ref) const { return words[slot_of(ref).word]; }

    bool header_valid(int header) const {
        check_header(header);
        const auto h = static_cast<std::size_t>(header);
        return (valid[h / 64] >> (h % 64)) & 1;
    }
    void set_valid(int header, bool on) {
        check_header(header);
        const auto h = static_cast<std::size_t>(header);
        const std::uint64_t bit = std::uint64_t{1} << (h % 64);
        valid[h / 64] = on ? valid[h / 64] | bit : valid[h / 64] & ~bit;
    }

    // Access by slot, skipping the reference lookup and its bounds checks,
    // for callers that resolved `slot` from this state's layout (the compiled
    // engine's precomputed operands).  store() keeps set()'s width check.
    util::Bitvec load(FieldSlot slot) const {
        if (slot.width <= 64) return util::Bitvec(slot.width, words[slot.word]);
        return util::Bitvec::from_words(
            slot.width, std::span<const std::uint64_t>(words.data() + slot.word,
                                                       slot_words(slot.width)));
    }
    void store(FieldSlot slot, const util::Bitvec& value) {
        if (value.width() != slot.width) {
            throw std::invalid_argument("PacketState::set: width mismatch");
        }
        const auto src = value.word_span();
        std::copy(src.begin(), src.end(), words.begin() + slot.word);
    }

    // Reads egress_spec from standard metadata.
    std::uint64_t egress_spec(const p4::ir::Program& prog) const;
    bool drop_flagged(const p4::ir::Program& prog) const;

    std::string summary(const p4::ir::Program& prog) const;

private:
    const FieldSlot& slot_of(p4::ir::FieldRef ref) const {
        if (!layout) throw std::out_of_range("PacketState: no layout");
        return layout->slot(ref);
    }
    void check_header(int header) const {
        if (!layout || header < 0 ||
            static_cast<std::size_t>(header) >= layout->headers.size()) {
            throw std::out_of_range("PacketState: header index out of range");
        }
    }
};

}  // namespace ndb::dataplane

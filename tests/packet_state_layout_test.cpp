// The flat packet-state layout against byte-level references.
//
// Both execution engines read and write one PacketState layout, so the
// interp-vs-compiled differential no longer checks the layout itself.
// These tests do, on a program with fields of widths 1, 7, 63, 64, 65, 127
// and 128 (most at unaligned bit offsets, so the streamed extract takes both
// its one-word and its byte-wise path), a header whose fields do not tile
// it, and a register extern:
//   (a) compiled parse then deparse of random packets gives the bytes a
//       reference built from Packet::extract_bits/deposit_bits gives;
//   (b) get/set round-trip on every field with every other field intact,
//       and set still throws on a width mismatch;
//   (c) after arbitrary writes, reset() equals a fresh
//       PacketState::initial(), with metadata_clobber on and off, and the
//       clobber pattern is bit-for-bit the alternating one;
//   (d) interpreter and compiled engine agree on outputs, stage digests and
//       full tap states.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/compile.h"
#include "dataplane/deparser.h"
#include "dataplane/digest.h"
#include "dataplane/image.h"
#include "dataplane/pipeline.h"
#include "dataplane/state.h"
#include "p4/compiler.h"
#include "util/random.h"

namespace {

using namespace ndb;
using dataplane::PacketState;
using p4::ir::FieldRef;
using util::Bitvec;

constexpr const char* kSource = R"P4(
header wide_t {
    bit<1>   w1;
    bit<7>   w7;
    bit<63>  w63;
    bit<127> w127;
    bit<64>  w64;
    bit<65>  w65;
    bit<128> w128;
    bit<1>   last;
}

header odd_t {
    bit<8> a;
    bit<8> b;
    bit<8> pad;
}

struct headers { wide_t wide; odd_t odd; }
struct metadata {
    bit<64> count;
    bit<65> spill;
    bit<7>  tag;
}

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.wide);
        transition select(hdr.wide.w1) {
            1: parse_odd;
            default: accept;
        }
    }
    state parse_odd {
        pkt.extract(hdr.odd);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    register<bit<64>>(128) seen;
    apply {
        seen.read(meta.count, hdr.wide.w7);
        seen.write(hdr.wide.w7, meta.count + hdr.wide.w64);
        meta.tag = hdr.wide.w7;
        meta.spill = hdr.wide.w65 ^ meta.spill;
        hdr.wide.w65 = hdr.wide.w65 + 1;
        hdr.wide.w128 = hdr.wide.w128 ^ (hdr.wide.w128 << 3);
        hdr.wide.w127 = hdr.wide.w127 >> 5;
        hdr.wide.w63 = hdr.wide.w63 - 1;
        hdr.wide.w64 = meta.count;
        if (hdr.odd.isValid()) {
            hdr.odd.a = hdr.odd.b + 1;
        }
        smeta.egress_spec = 9w1;
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.wide);
        pkt.emit(hdr.odd);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4";

constexpr int kWideBits = 1 + 7 + 63 + 127 + 64 + 65 + 128 + 1;  // 456: 57 bytes
constexpr int kOddBits = 24;

// The probe program.  odd_t is rewritten so its fields no longer tile the
// header: the unused `pad` is dropped, `b` moves to bits 0..7 and `a` to
// 16..23, leaving a gap the deparser must fill with zeros.  That is the
// non-streamable path of both engines.
std::shared_ptr<const p4::ir::Program> probe_program() {
    auto prog = p4::compile_source(kSource, "layout_probe");
    auto& odd = prog->headers[static_cast<std::size_t>(prog->header_index("odd"))];
    odd.fields.pop_back();
    odd.fields[0].offset = 16;  // a
    odd.fields[1].offset = 0;   // b
    return std::shared_ptr<const p4::ir::Program>(std::move(prog));
}

Bitvec random_value(util::Rng& rng, int width) {
    std::vector<std::uint64_t> words(static_cast<std::size_t>((width + 63) / 64) + 1);
    for (auto& w : words) w = rng.next_u64();
    return Bitvec::from_words(width, words);
}

packet::Packet random_packet(util::Rng& rng, bool with_odd) {
    const std::size_t payload = rng.next_below(9);
    std::vector<std::uint8_t> bytes(kWideBits / 8 + kOddBits / 8 + payload);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    // w1 is the first bit on the wire and selects whether odd is parsed.
    bytes[0] = static_cast<std::uint8_t>((bytes[0] & 0x7f) | (with_odd ? 0x80 : 0));
    packet::Packet pkt(std::move(bytes));
    pkt.meta.ingress_port = 3;
    pkt.meta.rx_time_ns = 5'000'000 + rng.next_below(1'000'000);
    return pkt;
}

// Reference parse+deparse of the probe program, field by field through the
// packet's bit accessors: wide at bit 0, odd (when w1 is set) right after
// it, the unparsed remainder as payload.
std::vector<std::uint8_t> reference_roundtrip(const p4::ir::Program& prog,
                                              const packet::Packet& in) {
    std::vector<int> parsed = {prog.header_index("wide")};
    if (in.extract_bits(0, 1).to_u64() == 1) parsed.push_back(prog.header_index("odd"));
    std::size_t bits = 0;
    for (const int h : parsed) {
        bits += static_cast<std::size_t>(prog.headers[static_cast<std::size_t>(h)].size_bits);
    }
    const std::size_t header_bytes = (bits + 7) / 8;
    packet::Packet out = packet::Packet::zeros(in.size());
    std::size_t cursor = 0;
    for (const int h : parsed) {
        const auto& hdr = prog.headers[static_cast<std::size_t>(h)];
        for (const auto& f : hdr.fields) {
            const std::size_t at = cursor + static_cast<std::size_t>(f.offset);
            out.deposit_bits(at, in.extract_bits(at, f.width));
        }
        cursor += static_cast<std::size_t>(hdr.size_bits);
    }
    for (std::size_t i = header_bytes; i < in.size(); ++i) {
        out.set_byte(i, in.bytes()[i]);
    }
    return out.data();
}

// The layout invariant behind the digest and the deparser: each field's raw
// words are exactly Bitvec::word_span() of its value, bits above the width
// included (zero).
void expect_raw_words_match_values(const p4::ir::Program& prog, const PacketState& st) {
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        for (std::size_t f = 0; f < prog.headers[h].fields.size(); ++f) {
            const FieldRef ref{static_cast<int>(h), static_cast<int>(f)};
            const auto& slot = st.layout->slot(ref);
            const Bitvec value = st.get(ref);
            const auto expect = value.word_span();
            for (std::size_t i = 0; i < expect.size(); ++i) {
                EXPECT_EQ(st.words[slot.word + i], expect[i])
                    << prog.headers[h].name << "." << prog.headers[h].fields[f].name
                    << " word " << i;
            }
        }
    }
}

// Every observable part of a state: validity, every field (through get()),
// payload, verdict, cycles and flags.
void expect_same_state(const p4::ir::Program& prog, const PacketState& a,
                       const PacketState& b) {
    for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        const int hi = static_cast<int>(h);
        EXPECT_EQ(a.header_valid(hi), b.header_valid(hi)) << prog.headers[h].name;
        for (std::size_t f = 0; f < prog.headers[h].fields.size(); ++f) {
            const FieldRef ref{hi, static_cast<int>(f)};
            EXPECT_EQ(a.get(ref), b.get(ref))
                << prog.headers[h].name << "." << prog.headers[h].fields[f].name;
        }
    }
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(a.parser_verdict, b.parser_verdict);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.exited, b.exited);
    EXPECT_EQ(a.vanished, b.vanished);
}

TEST(PacketStateLayout, LaysOutWholeWordsPerFieldInDeclarationOrder) {
    const auto prog = probe_program();
    const dataplane::StateLayout layout(*prog, false);
    const int wide = prog->header_index("wide");
    const auto& span = layout.headers[static_cast<std::size_t>(wide)];
    // 1, 7, 63 and 64 bits take a word each; 65, 127 and 128 bits take two.
    EXPECT_EQ(span.word_end - span.word_begin, 11u);
    const std::vector<std::uint32_t> offsets = {0, 1, 2, 3, 5, 6, 8, 10};
    for (std::size_t f = 0; f < offsets.size(); ++f) {
        const auto& slot = layout.slot({wide, static_cast<int>(f)});
        EXPECT_EQ(slot.word, span.word_begin + offsets[f]);
        EXPECT_EQ(slot.width, prog->headers[static_cast<std::size_t>(wide)].fields[f].width);
    }
    EXPECT_TRUE(span.streamable);
    const int odd = prog->header_index("odd");
    EXPECT_FALSE(layout.headers[static_cast<std::size_t>(odd)].streamable);
    // Fields that cover their header exactly, but not in declaration order,
    // do not stream either.
    auto swapped = p4::compile_source(kSource, "layout_swapped");
    auto& hdr = swapped->headers[static_cast<std::size_t>(odd)];
    hdr.fields.pop_back();
    hdr.size_bits = 16;
    hdr.fields[0].offset = 8;
    hdr.fields[1].offset = 0;
    EXPECT_FALSE(dataplane::StateLayout(*swapped, false)
                     .headers[static_cast<std::size_t>(odd)]
                     .streamable);
}

TEST(PacketStateLayout, CompiledParseDeparseMatchesByteReference) {
    const auto prog = probe_program();
    const dataplane::Image image(prog, {});
    dataplane::TableSet tables(*prog, 0, false);
    dataplane::StatefulSet stateful(*prog);
    dataplane::CompiledPipeline compiled(image, tables, stateful);
    dataplane::ParserEngine parser(*prog);

    util::Rng rng(0x1a7007);
    int with_odd = 0;
    for (int i = 0; i < 200; ++i) {
        SCOPED_TRACE(i);
        const packet::Packet pkt = random_packet(rng, i % 2 == 1);
        const std::vector<std::uint8_t> expect = reference_roundtrip(*prog, pkt);
        with_odd += pkt.extract_bits(0, 1).to_u64() == 1;

        PacketState state(image.layout);
        state.reset(pkt.meta, static_cast<std::uint32_t>(pkt.size()));
        ASSERT_EQ(compiled.run_parser(pkt, state), dataplane::ParserVerdict::accept);
        EXPECT_EQ(compiled.deparse(state).data(), expect);
        expect_raw_words_match_values(*prog, state);

        // The reference parser and generic deparser agree too.
        PacketState interp_state(image.layout);
        interp_state.reset(pkt.meta, static_cast<std::uint32_t>(pkt.size()));
        ASSERT_EQ(parser.run(pkt, interp_state), dataplane::ParserVerdict::accept);
        EXPECT_EQ(dataplane::deparse(*prog, interp_state).data(), expect);
        expect_same_state(*prog, state, interp_state);
    }
    EXPECT_EQ(with_odd, 100);
}

TEST(PacketStateLayout, GetSetRoundTripEveryFieldAndWidthMismatchThrows) {
    const auto prog = probe_program();
    PacketState state = PacketState::initial(*prog, packet::PacketMeta{}, 64);
    util::Rng rng(42);
    // Write every field first, then read every field back: a slot that
    // overlaps another shows up as a clobbered value.
    std::vector<std::vector<Bitvec>> written(prog->headers.size());
    for (std::size_t h = 0; h < prog->headers.size(); ++h) {
        for (std::size_t f = 0; f < prog->headers[h].fields.size(); ++f) {
            const Bitvec v = random_value(rng, prog->headers[h].fields[f].width);
            state.set({static_cast<int>(h), static_cast<int>(f)}, v);
            written[h].push_back(v);
        }
    }
    expect_raw_words_match_values(*prog, state);
    for (std::size_t h = 0; h < prog->headers.size(); ++h) {
        for (std::size_t f = 0; f < prog->headers[h].fields.size(); ++f) {
            const FieldRef ref{static_cast<int>(h), static_cast<int>(f)};
            const Bitvec got = state.get(ref);
            EXPECT_EQ(got, written[h][f])
                << prog->headers[h].name << "." << prog->headers[h].fields[f].name;
            EXPECT_EQ(state.u64(ref), got.to_u64());
            const int w = got.width();
            EXPECT_THROW(state.set(ref, Bitvec(w + 1)), std::invalid_argument);
            if (w > 0) {
                EXPECT_THROW(state.set(ref, Bitvec(w - 1)), std::invalid_argument);
            }
            EXPECT_EQ(state.get(ref), written[h][f]) << "a failed set wrote";
        }
    }
    const int wide = prog->header_index("wide");
    EXPECT_THROW(state.get({wide, 8}), std::out_of_range);
    EXPECT_THROW(state.get({static_cast<int>(prog->headers.size()), 0}), std::out_of_range);
    EXPECT_THROW(state.header_valid(-1), std::out_of_range);
    EXPECT_THROW(PacketState().get({0, 0}), std::out_of_range);
}

TEST(PacketStateLayout, ResetAfterArbitraryWritesEqualsAFreshInitialState) {
    const auto prog = probe_program();
    const FieldRef count{prog->usermeta, prog->headers[static_cast<std::size_t>(
                                             prog->usermeta)].field_index("count")};
    const FieldRef spill{prog->usermeta, prog->headers[static_cast<std::size_t>(
                                             prog->usermeta)].field_index("spill")};
    for (const bool clobber : {false, true}) {
        SCOPED_TRACE(clobber ? "metadata_clobber" : "zeroed metadata");
        dataplane::Quirks quirks;
        quirks.metadata_clobber = clobber;
        const dataplane::Image image(prog, quirks);
        PacketState state(image.layout);
        util::Rng rng(clobber ? 7 : 8);
        for (int round = 0; round < 20; ++round) {
            // Scribble over everything a stage may touch.
            for (std::size_t h = 0; h < prog->headers.size(); ++h) {
                state.set_valid(static_cast<int>(h), rng.next_bool());
                for (std::size_t f = 0; f < prog->headers[h].fields.size(); ++f) {
                    state.set({static_cast<int>(h), static_cast<int>(f)},
                              random_value(rng, prog->headers[h].fields[f].width));
                }
            }
            state.payload.assign(1 + rng.next_below(20), 0xab);
            state.parser_verdict = dataplane::ParserVerdict::error_loop;
            state.cycles = rng.next_u64();
            state.exited = true;
            state.vanished = true;

            packet::PacketMeta meta;
            meta.ingress_port = static_cast<std::uint32_t>(rng.next_below(512));
            meta.rx_time_ns = rng.next_u64() >> 8;
            const auto len = static_cast<std::uint32_t>(rng.next_u64());
            state.reset(meta, len);
            const PacketState fresh = PacketState::initial(*prog, meta, len, clobber);
            expect_same_state(*prog, state, fresh);
            expect_raw_words_match_values(*prog, state);
            EXPECT_EQ(dataplane::hash_packet_state(*prog, state),
                      dataplane::hash_packet_state(*prog, fresh));
            EXPECT_EQ(state.u64(prog->f_ingress_port), meta.ingress_port);
            EXPECT_EQ(state.u64(prog->f_packet_length), len);
            EXPECT_EQ(state.u64(prog->f_timestamp), (meta.rx_time_ns / 1000) & ((1ull << 48) - 1));
        }
        // User metadata carries the alternating pattern exactly when
        // clobbered: bits 0, 2, 4, ... set, bit by bit.
        for (const FieldRef ref : {count, spill}) {
            const Bitvec v = state.get(ref);
            for (int b = 0; b < v.width(); ++b) {
                EXPECT_EQ(v.bit(b), clobber && b % 2 == 0) << "bit " << b;
            }
        }
    }
}

std::vector<dataplane::PipelineResult> run_engine(const std::shared_ptr<const p4::ir::Program>& prog,
               dataplane::Engine engine) {
    const auto image = dataplane::image_for(prog, {});
    dataplane::TableSet tables(*prog, 0, false);
    dataplane::StatefulSet stateful(*prog);
    dataplane::PipelineOptions options;
    options.engine = engine;
    options.capture_taps = true;
    options.capture_digests = true;
    dataplane::Pipeline pipeline(image, tables, stateful, options);
    util::Rng rng(0xd1ff);
    std::vector<dataplane::PipelineResult> results;
    for (int i = 0; i < 300; ++i) {
        // A small w7 range makes register cells repeat, so reads see
        // earlier writes.
        packet::Packet pkt = random_packet(rng, rng.next_bool());
        pkt.bytes_mut()[0] &= 0x83;
        results.push_back(pipeline.process(pkt));
    }
    return results;
}

void expect_same_tap(const p4::ir::Program& prog,
                     const std::optional<PacketState>& a,
                     const std::optional<PacketState>& b) {
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) return;
    expect_same_state(prog, *a, *b);
    expect_raw_words_match_values(prog, *b);
}

TEST(PacketStateLayout, InterpreterAndCompiledAgreeOnOutputsDigestsAndTaps) {
    const auto prog = probe_program();
    const auto interp = run_engine(prog, dataplane::Engine::interpreter);
    const auto compiled = run_engine(prog, dataplane::Engine::compiled);
    ASSERT_EQ(interp.size(), compiled.size());
    for (std::size_t i = 0; i < interp.size(); ++i) {
        SCOPED_TRACE(i);
        const auto& a = interp[i];
        const auto& b = compiled[i];
        ASSERT_EQ(a.disposition, dataplane::Disposition::forwarded);
        EXPECT_EQ(a.disposition, b.disposition);
        EXPECT_EQ(a.output.data(), b.output.data());
        EXPECT_EQ(a.egress_port, b.egress_port);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.stage_hash, b.stage_hash);
        EXPECT_EQ(a.stage_hash[0], dataplane::hash_packet_state(*prog, *a.tap_after_parser));
        expect_same_tap(*prog, a.tap_after_parser, b.tap_after_parser);
        expect_same_tap(*prog, a.tap_after_ingress, b.tap_after_ingress);
        expect_same_tap(*prog, a.tap_after_egress, b.tap_after_egress);
    }
}

}  // namespace

// Streaming tap digests vs an independent copy-based reference.
//
// The pipeline hashes the live PacketState in place at each stage tap.
// These tests pin that digest three ways:
//   * for every corpus seed (golden and quirked device images), the
//     in-place TapDigest is bit-identical to an independent reference
//     implementation of the same word-at-a-time hash run over the
//     materialized tap copies;
//   * across the same runs, golden and quirked digests at a stage are equal
//     exactly when the two tap states are equal;
//   * flipping any single bit of a field (widths 1, 63, 64, 65, 128) or
//     toggling a header's valid flag changes the digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/generator.h"
#include "core/specgen.h"
#include "dataplane/digest.h"
#include "p4/compiler.h"
#include "target/device.h"

#ifndef NDB_CORPUS_DIR
#error "NDB_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

using namespace ndb;

// --- reference implementation of the digest -----------------------------------
//
// Written from the algorithm's description, not from digest.cpp: field
// words are rebuilt bit by bit through Bitvec::bit() rather than read from
// word_span(), and the MurmurHash3 x64 body/finalizer steps are spelled out
// with explicit shifts.

std::uint64_t ref_rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
}

std::uint64_t ref_step(std::uint64_t h, std::uint64_t k) {
    k *= 0x87c37b91114253d5ull;
    k = ref_rotl(k, 31);
    k *= 0x4cf5ad432745937full;
    h ^= k;
    h = ref_rotl(h, 27);
    return h * 5 + 0x52dce729;
}

std::uint64_t ref_fmix(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

// Little-endian 64-bit words of `v`: ceil(width/64) of them, at least one.
std::vector<std::uint64_t> ref_words(const util::Bitvec& v) {
    std::vector<std::uint64_t> words(
        static_cast<std::size_t>(std::max(1, (v.width() + 63) / 64)), 0);
    for (int i = 0; i < v.width(); ++i) {
        if (v.bit(i)) words[static_cast<std::size_t>(i / 64)] |= 1ull << (i % 64);
    }
    return words;
}

std::uint64_t ref_hash(const p4::ir::Program& prog,
                       const dataplane::PacketState& state) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const int hi = static_cast<int>(i);
        const bool valid = state.header_valid(hi);
        h = ref_step(h, valid ? 1 : 0);
        if (!valid && !prog.headers[i].is_metadata) continue;
        for (std::size_t f = 0; f < prog.headers[i].fields.size(); ++f) {
            const util::Bitvec field = state.get({hi, static_cast<int>(f)});
            for (const std::uint64_t w : ref_words(field)) h = ref_step(h, w);
        }
    }
    return ref_fmix(h);
}

std::uint64_t copy_based_hash(const p4::ir::Program& prog,
                              const std::optional<dataplane::PacketState>& tap) {
    if (!tap) return 0x9e3779b97f4a7c15ull;  // sentinel: stage never reached
    return ref_hash(prog, *tap);
}

// The state equality the digest stands for (and FaultLocalizer checks):
// validity of every header, plus every field of each valid or metadata
// header.  An unreached stage equals only another unreached stage.
bool taps_equal(const p4::ir::Program& prog,
                const std::optional<dataplane::PacketState>& a,
                const std::optional<dataplane::PacketState>& b) {
    if (!a || !b) return !a && !b;
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const int hi = static_cast<int>(i);
        const bool valid = a->header_valid(hi);
        if (valid != b->header_valid(hi)) return false;
        if (!valid && !prog.headers[i].is_metadata) continue;
        for (std::size_t f = 0; f < prog.headers[i].fields.size(); ++f) {
            const p4::ir::FieldRef ref{hi, static_cast<int>(f)};
            if (a->get(ref) != b->get(ref)) return false;
        }
    }
    return true;
}

// --- corpus plumbing ----------------------------------------------------------

struct CorpusEntry {
    std::string file;
    std::uint64_t seed = 0;
    std::string program;
    std::string quirks_signature;
};

dataplane::Quirks parse_signature(const std::string& signature) {
    dataplane::Quirks q;
    if (signature == "none") return q;
    std::size_t start = 0;
    while (start <= signature.size()) {
        const std::size_t plus = signature.find('+', start);
        const std::string item = signature.substr(
            start, plus == std::string::npos ? std::string::npos : plus - start);
        const std::size_t eq = item.find('=');
        const std::string key = item.substr(0, eq);
        const int value =
            eq == std::string::npos ? 0 : std::stoi(item.substr(eq + 1));
        if (key == "reject_as_accept") q.reject_as_accept = true;
        else if (key == "parser_depth_limit") q.parser_depth_limit = value;
        else if (key == "skip_checksum_update") q.skip_checksum_update = true;
        else if (key == "shift_miscompile") q.shift_miscompile = true;
        else if (key == "table_size_clamp") q.table_size_clamp = value;
        else if (key == "ternary_priority_inverted") q.ternary_priority_inverted = true;
        else if (key == "metadata_clobber") q.metadata_clobber = true;
        else if (key == "stale_entry") q.stale_entry = true;
        else if (key == "expiry_off_by_one") q.expiry_off_by_one = true;
        else if (key == "hash_collision_misdirect") q.hash_collision_misdirect = value;
        else ADD_FAILURE() << "unknown quirk in corpus signature: " << key;
        if (plus == std::string::npos) break;
        start = plus + 1;
    }
    return q;
}

std::vector<CorpusEntry> load_corpus() {
    std::vector<CorpusEntry> entries;
    std::vector<std::filesystem::path> files;
    for (const auto& file :
         std::filesystem::directory_iterator(NDB_CORPUS_DIR)) {
        if (file.path().extension() == ".corpus") files.push_back(file.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
        CorpusEntry entry;
        entry.file = path.filename().string();
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') continue;
            const std::size_t eq = line.find('=');
            if (eq == std::string::npos) continue;
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 1);
            if (key == "seed") entry.seed = std::stoull(value);
            else if (key == "program") entry.program = value;
            else if (key == "quirks") entry.quirks_signature = value;
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

// One device's run of a scenario: full taps and streaming digests of the
// same packets.
struct DeviceRun {
    std::vector<target::TapRecord> taps;
    std::vector<dataplane::TapDigest> digests;
};

// Runs a scenario's packet stream with BOTH full taps and streaming digests
// enabled and asserts they describe the identical execution.
DeviceRun check_device(target::Device& dev, const core::Scenario& sc) {
    DeviceRun run;
    EXPECT_TRUE(dev.load(*sc.compiled));
    for (const auto& op : sc.config) core::apply_config_op(dev, op);

    dev.set_taps_enabled(true);
    dev.set_digests_enabled(true);

    core::TestPacketGenerator pgen(sc.spec);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        dev.inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
    }
    dev.flush();

    run.taps = dev.tap_records();
    run.digests = dev.digest_records();
    EXPECT_EQ(run.taps.size(), sc.spec.count);
    EXPECT_EQ(run.digests.size(), sc.spec.count);
    if (run.taps.size() != run.digests.size()) return {};

    const p4::ir::Program& prog = dev.program();
    for (std::size_t i = 0; i < run.taps.size(); ++i) {
        const dataplane::PipelineResult& r = run.taps[i].result;
        const dataplane::TapDigest& d = run.digests[i];
        EXPECT_EQ(d.verdict, r.parser_verdict) << "packet " << i + 1;
        EXPECT_EQ(d.disposition, r.disposition) << "packet " << i + 1;
        EXPECT_EQ(d.stage_hash[0], copy_based_hash(prog, r.tap_after_parser))
            << "parser tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[1], copy_based_hash(prog, r.tap_after_ingress))
            << "ingress tap, packet " << i + 1;
        EXPECT_EQ(d.stage_hash[2], copy_based_hash(prog, r.tap_after_egress))
            << "egress tap, packet " << i + 1;
    }
    return run;
}

TEST(TapDigest, CorpusSeedsHashIdenticallyToCopyBasedTaps) {
    const std::vector<CorpusEntry> corpus = load_corpus();
    ASSERT_FALSE(corpus.empty()) << "empty corpus dir: " << NDB_CORPUS_DIR;

    for (const auto& entry : corpus) {
        SCOPED_TRACE(entry.file);
        const core::SpecGenerator gen({entry.program});
        const core::Scenario sc = gen.make(entry.seed);

        // Golden image and the corpus entry's quirked image both stream the
        // same digests their tap copies hash to.
        auto golden = target::make_device("reference");
        ASSERT_NE(golden, nullptr);
        check_device(*golden, sc);

        auto dut = target::make_device("sdnet", parse_signature(entry.quirks_signature));
        ASSERT_NE(dut, nullptr);
        check_device(*dut, sc);
    }
}

TEST(TapDigest, GoldenAndQuirkedDigestsAgreeExactlyWhenTapStatesAgree) {
    const std::vector<CorpusEntry> corpus = load_corpus();
    ASSERT_FALSE(corpus.empty()) << "empty corpus dir: " << NDB_CORPUS_DIR;

    std::size_t equal_pairs = 0;
    std::size_t differing_pairs = 0;
    for (const auto& entry : corpus) {
        SCOPED_TRACE(entry.file);
        const core::SpecGenerator gen({entry.program});
        const core::Scenario sc = gen.make(entry.seed);

        auto golden = target::make_device("reference");
        auto dut = target::make_device("sdnet", parse_signature(entry.quirks_signature));
        ASSERT_NE(golden, nullptr);
        ASSERT_NE(dut, nullptr);
        const DeviceRun g = check_device(*golden, sc);
        const DeviceRun d = check_device(*dut, sc);
        ASSERT_EQ(g.taps.size(), d.taps.size());

        const p4::ir::Program& prog = golden->program();
        for (std::size_t i = 0; i < g.taps.size(); ++i) {
            const dataplane::PipelineResult& gr = g.taps[i].result;
            const dataplane::PipelineResult& dr = d.taps[i].result;
            const std::optional<dataplane::PacketState>* gt[3] = {
                &gr.tap_after_parser, &gr.tap_after_ingress, &gr.tap_after_egress};
            const std::optional<dataplane::PacketState>* dt[3] = {
                &dr.tap_after_parser, &dr.tap_after_ingress, &dr.tap_after_egress};
            for (int stage = 0; stage < 3; ++stage) {
                const bool states_equal = taps_equal(prog, *gt[stage], *dt[stage]);
                const bool digests_equal =
                    g.digests[i].stage_hash[stage] == d.digests[i].stage_hash[stage];
                EXPECT_EQ(digests_equal, states_equal)
                    << "packet " << i + 1 << ", stage " << stage;
                ++(states_equal ? equal_pairs : differing_pairs);
            }
        }
    }
    // The corpus holds reproducers of real divergences, so both outcomes
    // must actually occur or the check above proves nothing.
    EXPECT_GT(equal_pairs, 0u);
    EXPECT_GT(differing_pairs, 0u);
}

TEST(TapDigest, EverySingleBitFlipAndValidityToggleChangesTheDigest) {
    const auto prog = p4::compile_source(R"P4(
header wide_t {
    bit<1>   w1;
    bit<63>  w63;
    bit<64>  w64;
    bit<65>  w65;
    bit<128> w128;
}

struct headers { wide_t wide; }
struct metadata { }

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.wide);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    apply { smeta.egress_spec = 9w1; }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply { pkt.emit(hdr.wide); }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4", "digest_widths");

    int wide = -1;
    for (std::size_t h = 0; h < prog->headers.size(); ++h) {
        if (prog->headers[h].name == "wide") wide = static_cast<int>(h);
    }
    ASSERT_GE(wide, 0);

    dataplane::PacketState base =
        dataplane::PacketState::initial(*prog, packet::PacketMeta{}, 64);
    base.set_valid(wide, true);
    ASSERT_EQ(prog->headers[static_cast<std::size_t>(wide)].fields.size(), 5u);
    const std::vector<int> widths = {1, 63, 64, 65, 128};
    for (std::size_t f = 0; f < widths.size(); ++f) {
        const p4::ir::FieldRef ref{wide, static_cast<int>(f)};
        util::Bitvec field = base.get(ref);
        ASSERT_EQ(field.width(), widths[f]);
        // A non-trivial starting value: alternate bits set.
        for (int b = 0; b < widths[f]; b += 2) field.set_bit(b, true);
        base.set(ref, field);
    }

    const std::uint64_t base_hash = dataplane::hash_packet_state(*prog, base);
    EXPECT_EQ(base_hash, ref_hash(*prog, base));

    std::set<std::uint64_t> seen = {base_hash};
    std::size_t variants = 1;
    for (std::size_t f = 0; f < widths.size(); ++f) {
        const p4::ir::FieldRef ref{wide, static_cast<int>(f)};
        for (int b = 0; b < widths[f]; ++b) {
            dataplane::PacketState flipped = base;
            util::Bitvec field = flipped.get(ref);
            field.set_bit(b, !field.bit(b));
            flipped.set(ref, field);
            const std::uint64_t h = dataplane::hash_packet_state(*prog, flipped);
            EXPECT_NE(h, base_hash) << "width " << widths[f] << " bit " << b;
            EXPECT_EQ(h, ref_hash(*prog, flipped));
            seen.insert(h);
            ++variants;
        }
    }
    dataplane::PacketState toggled = base;
    toggled.set_valid(wide, false);
    const std::uint64_t toggled_hash = dataplane::hash_packet_state(*prog, toggled);
    EXPECT_NE(toggled_hash, base_hash);
    seen.insert(toggled_hash);
    ++variants;
    // No two single-bit variants collide with each other either.
    EXPECT_EQ(seen.size(), variants);
}

TEST(TapDigest, UnreachedStagesReportTheSentinel) {
    // A parser-rejected packet never reaches ingress/egress: digests must
    // carry the same sentinel the copy-based hasher produced for a missing
    // tap, or stage-level divergence detection would misfire.
    const core::SpecGenerator gen({"reject_filter"});
    const core::Scenario sc = gen.make(3);
    auto dev = target::make_device("reference");
    ASSERT_TRUE(dev->load(*sc.compiled));
    dev->set_digests_enabled(true);

    core::TestPacketGenerator pgen(sc.spec);
    bool saw_reject = false;
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        dev->inject(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
    }
    for (const auto& d : dev->digest_records()) {
        if (d.verdict == dataplane::ParserVerdict::reject) {
            saw_reject = true;
            EXPECT_NE(d.stage_hash[0], dataplane::kStageNotReachedHash);
            EXPECT_EQ(d.stage_hash[1], dataplane::kStageNotReachedHash);
            EXPECT_EQ(d.stage_hash[2], dataplane::kStageNotReachedHash);
        }
    }
    EXPECT_TRUE(saw_reject) << "reject_filter seed 3 produced no rejects";
}

}  // namespace

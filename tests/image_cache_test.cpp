// The (program, quirks) image cache behind target::Device::load():
//
//   * sharing -- devices running the same program object under equal quirks
//     share one image, different quirks never do, and concurrent first
//     loads still end up with one image;
//   * fidelity -- a cached image is exactly what a fresh compile() of the
//     pair produces, over the catalogue and every quirk set;
//   * lifetime -- the device keeps its program alive, the cache never does,
//     and a dead program's entry is never served to a newcomer;
//   * reload -- loading the running program again keeps its image and
//     leaves the device exactly as a fresh device that loaded it;
//   * the Quirks key -- every field is part of both operator== and
//     signature(), so no two quirk values can alias an image or a
//     campaign fingerprint.
#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/tools.h"
#include "coverage/coverage.h"
#include "dataplane/compile.h"
#include "dataplane/image.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/sim_device.h"

namespace {

using namespace ndb;
using Program = p4::ir::Program;

std::shared_ptr<const Program> shared_program(std::string_view name) {
    return p4::compile_source(p4::programs::sample_by_name(name), std::string(name));
}

// Every Quirks field set alone.  The structured binding stops compiling
// when a field is added, so this list has to grow with the struct.
std::vector<std::pair<std::string, dataplane::Quirks>> single_quirks() {
    [[maybe_unused]] const auto& [f0, f1, f2, f3, f4, f5, f6, f7, f8, f9] =
        dataplane::Quirks{};
    std::vector<std::pair<std::string, dataplane::Quirks>> out(10);
    out[0].first = "reject_as_accept";
    out[0].second.reject_as_accept = true;
    out[1].first = "parser_depth_limit";
    out[1].second.parser_depth_limit = 2;
    out[2].first = "skip_checksum_update";
    out[2].second.skip_checksum_update = true;
    out[3].first = "shift_miscompile";
    out[3].second.shift_miscompile = true;
    out[4].first = "table_size_clamp";
    out[4].second.table_size_clamp = 2;
    out[5].first = "ternary_priority_inverted";
    out[5].second.ternary_priority_inverted = true;
    out[6].first = "metadata_clobber";
    out[6].second.metadata_clobber = true;
    out[7].first = "stale_entry";
    out[7].second.stale_entry = true;
    out[8].first = "expiry_off_by_one";
    out[8].second.expiry_off_by_one = true;
    out[9].first = "hash_collision_misdirect";
    out[9].second.hash_collision_misdirect = 4;
    return out;
}

// Drives one l2_switch device: programs host 2 -> port 3, injects an IPv4
// packet and returns everything drained, port by port.
std::vector<std::vector<std::vector<std::uint8_t>>> forward_once(
    target::Device& dev) {
    EXPECT_TRUE(core::scenario::add_l2_entry(dev, core::scenario::host_mac(2), 3).ok);
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    dev.inject(pkt);
    std::vector<std::vector<std::vector<std::uint8_t>>> out;
    for (int port = 0; port < dev.config().num_ports; ++port) {
        out.emplace_back();
        for (const auto& p : dev.drain_port(static_cast<std::uint32_t>(port))) {
            const auto bytes = p.bytes();
            out.back().emplace_back(bytes.begin(), bytes.end());
        }
    }
    return out;
}

TEST(Quirks, EachFieldAloneHasItsOwnSignature) {
    const auto singles = single_quirks();
    std::set<std::string> signatures;
    for (const auto& [label, q] : singles) {
        SCOPED_TRACE(label);
        EXPECT_TRUE(q.any());
        EXPECT_NE(q.signature(), "none");
        EXPECT_NE(q.signature(), dataplane::Quirks{}.signature());
        EXPECT_FALSE(q == dataplane::Quirks{});
        EXPECT_TRUE(signatures.insert(q.signature()).second)
            << "signature " << q.signature() << " aliases another field";
    }
    for (std::size_t i = 0; i < singles.size(); ++i) {
        for (std::size_t j = 0; j < singles.size(); ++j) {
            EXPECT_EQ(singles[i].second == singles[j].second, i == j)
                << singles[i].first << " vs " << singles[j].first;
        }
    }
}

TEST(ImageCache, EqualQuirksShareOneImageDifferentQuirksDoNot) {
    const auto prog = shared_program("acl_firewall");
    target::DeviceConfig dut_config;
    dut_config.backend = "clean_dut";  // a different backend, faithful quirks
    target::SimDevice reference({}), clean_dut(dut_config);
    auto sdnet = target::make_sdnet_device();
    ASSERT_TRUE(reference.load(*prog));
    ASSERT_TRUE(clean_dut.load(*prog));
    ASSERT_TRUE(sdnet->load(*prog));

    ASSERT_NE(reference.image(), nullptr);
    EXPECT_EQ(reference.image(), clean_dut.image());
    EXPECT_EQ(&reference.image()->code, &clean_dut.image()->code);
    EXPECT_EQ(&reference.image()->program, prog.get());

    const auto* sdnet_image = dynamic_cast<target::SimDevice&>(*sdnet).image();
    ASSERT_NE(sdnet_image, nullptr);
    EXPECT_NE(sdnet_image, reference.image());
    EXPECT_EQ(sdnet_image->quirks, target::sdnet_quirks());
    // Same program object either way: the devices share it, not copies.
    EXPECT_EQ(&sdnet->program(), prog.get());
    EXPECT_EQ(&reference.program(), prog.get());
}

TEST(ImageCache, CachedImageEqualsAFreshCompile) {
    std::vector<std::pair<std::string, dataplane::Quirks>> quirk_sets = {
        {"reference", {}}, {"sdnet", target::sdnet_quirks()}};
    for (const auto& single : single_quirks()) quirk_sets.push_back(single);

    for (const auto& sample : p4::programs::all_samples()) {
        SCOPED_TRACE(sample.name);
        const std::shared_ptr<const Program> prog =
            p4::compile_source(sample.source, sample.name);
        for (const auto& [label, quirks] : quirk_sets) {
            SCOPED_TRACE(label);
            const auto image = dataplane::image_for(prog, quirks);
            EXPECT_EQ(&image->program, prog.get());
            EXPECT_EQ(image->quirks, quirks);
            EXPECT_TRUE(image->code == dataplane::compile(*prog, quirks));
            EXPECT_EQ(image->branch_ids, p4::ir::number_branches(*prog));
            EXPECT_EQ(image->layout->headers.size(), prog->headers.size());
            EXPECT_EQ(dataplane::image_for(prog, quirks), image);
        }
    }
}

TEST(ImageCache, DeviceKeepsItsProgramAliveButTheCacheDoesNot) {
    target::SimDevice dev({});
    std::weak_ptr<const Program> watch;
    {
        const auto prog = shared_program("l2_switch");
        watch = prog;
        ASSERT_TRUE(dev.load(*prog));
    }
    ASSERT_FALSE(watch.expired());  // the device owns it now
    const auto out = forward_once(dev);
    ASSERT_EQ(out[3].size(), 1u);

    // Loading something else drops the device's reference; neither the
    // image nor the cache entry may keep the program alive.
    const auto other = shared_program("passthrough");
    ASSERT_TRUE(dev.load(*other));
    EXPECT_TRUE(watch.expired());
}

TEST(ImageCache, ADeadProgramsEntryIsNeverServedToANewProgram) {
    target::SimDevice dev({});
    const auto keep = shared_program("passthrough");
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE(round);
        {
            // Owned through a separate control block, as core::compile()
            // does: the program's storage is freed as soon as it dies, so
            // the next program may well reuse its address.
            const std::shared_ptr<const Program> a = shared_program("l2_switch");
            ASSERT_TRUE(dev.load(*a));
        }
        ASSERT_TRUE(dev.load(*keep));  // releases A
        const std::shared_ptr<const Program> b = shared_program("ipv4_router");
        ASSERT_TRUE(dev.load(*b));

        EXPECT_EQ(&dev.program(), b.get());
        EXPECT_EQ(&dev.image()->program, b.get());
        EXPECT_TRUE(dev.image()->code == dataplane::compile(*b, {}));
        // B's tables, not A's.
        EXPECT_FALSE(core::scenario::add_l2_entry(dev, core::scenario::host_mac(2), 3).ok);
        ASSERT_TRUE(core::scenario::add_default_route(dev, 2).ok);
        packet::Packet pkt = core::scenario::ipv4_udp_packet();
        pkt.meta.ingress_port = 0;
        dev.inject(pkt);
        EXPECT_EQ(dev.drain_port(2).size(), 1u);
    }
}

TEST(ImageCache, ReloadingTheSameProgramStillStalesHandles) {
    target::SimDevice dev({});
    const auto prog = shared_program("l2_switch");
    ASSERT_TRUE(dev.load(*prog));
    const dataplane::Image* before = dev.image();
    const control::TableHandle dmac = dev.resolve_table("dmac");
    ASSERT_TRUE(dmac.valid());

    ASSERT_TRUE(dev.load(*prog));
    EXPECT_EQ(dev.image(), before);  // the reload hit the cache

    control::EntrySpec entry;
    const packet::Mac mac = core::scenario::host_mac(2);
    entry.key_values = {util::Bitvec::from_bytes(
        std::span<const std::uint8_t>(mac.data(), mac.size()), 48)};
    entry.action = "forward";
    entry.action_args = {util::Bitvec(9, 3)};
    const control::Status stale = dev.add_entry(dmac, entry);
    EXPECT_FALSE(stale.ok);
    EXPECT_NE(stale.message.find("stale"), std::string::npos) << stale.message;
    EXPECT_TRUE(dev.add_entry(dev.resolve_table("dmac"), entry).ok);
}

// Every kind of per-load state in one program: an LPM and a ternary table
// with non-trivial default actions, a register whose value reaches the
// output, a counter and a meter that can drop.
constexpr std::string_view kReloadProbe = R"P4(
header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}
struct headers { ethernet_t ethernet; }
struct metadata {
    bit<16> seen;
    bit<2> color;
}

parser MyParser(packet_in pkt, out headers hdr, inout metadata meta,
                inout standard_metadata_t smeta) {
    state start {
        pkt.extract(hdr.ethernet);
        transition accept;
    }
}

control MyIngress(inout headers hdr, inout metadata meta,
                  inout standard_metadata_t smeta) {
    register<bit<16>>(8) seen;
    counter(8) bytes;
    meter(8) policer;
    action drop() {
        mark_to_drop(smeta);
    }
    action forward(bit<9> port) {
        smeta.egress_spec = port;
    }
    action tag(bit<16> value) {
        hdr.ethernet.etherType = value;
    }
    table route {
        key = { hdr.ethernet.dstAddr : lpm; }
        actions = { forward; drop; }
        size = 16;
        default_action = drop();
    }
    table acl {
        key = { hdr.ethernet.srcAddr : ternary; }
        actions = { tag; NoAction; }
        size = 16;
        default_action = NoAction();
    }
    apply {
        seen.read(meta.seen, smeta.ingress_port);
        seen.write(smeta.ingress_port, meta.seen + 1);
        bytes.count(smeta.ingress_port);
        policer.execute(smeta.ingress_port, meta.color);
        route.apply();
        acl.apply();
        hdr.ethernet.etherType = hdr.ethernet.etherType + meta.seen;
        if (meta.color == 2) {
            drop();
        }
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.ethernet);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4";

control::EntrySpec route_entry(std::uint64_t prefix, int len, std::uint64_t port) {
    control::EntrySpec e;
    e.key_values = {util::Bitvec(48, prefix)};
    e.prefix_len = len;
    e.action = "forward";
    e.action_args = {util::Bitvec(9, port)};
    return e;
}

control::EntrySpec acl_entry(std::uint64_t value, std::uint64_t mask,
                             std::uint64_t tag) {
    control::EntrySpec e;
    e.key_values = {util::Bitvec(48, value)};
    e.key_masks = {util::Bitvec(48, mask)};
    e.priority = 5;  // every acl entry ties: insertion order decides
    e.action = "tag";
    e.action_args = {util::Bitvec(16, tag)};
    return e;
}

// Ingress ports, destinations and sources chosen to hit and miss both
// tables, on an explicit timeline so the meter colours do not depend on a
// device's clock.
std::vector<packet::Packet> reload_stream() {
    std::vector<packet::Packet> out;
    for (std::uint64_t i = 0; i < 24; ++i) {
        std::vector<std::uint8_t> bytes(60, 0);
        const std::uint64_t dst = (i % 3 == 0 ? 0x0b0000000000ull : 0x0a0b00000000ull) + i;
        const std::uint64_t src = i % 4;
        for (int b = 0; b < 6; ++b) {
            bytes[static_cast<std::size_t>(b)] =
                static_cast<std::uint8_t>(dst >> (8 * (5 - b)));
            bytes[static_cast<std::size_t>(6 + b)] =
                static_cast<std::uint8_t>(src >> (8 * (5 - b)));
        }
        packet::Packet pkt(std::move(bytes));
        pkt.meta.ingress_port = static_cast<std::uint32_t>(i % 2);
        pkt.meta.rx_time_ns = 5'000'000 + 1000 * i;
        out.push_back(std::move(pkt));
    }
    return out;
}

// Programs the same tables and meter on every device the test compares;
// defaults stay the program's, so a reload that kept the old defaults
// shows in the output.
void configure_reload_probe(target::Device& dev) {
    ASSERT_TRUE(dev.add_entry("route", route_entry(0x0a0000000000ull, 8, 1)).ok);
    ASSERT_TRUE(dev.add_entry("acl", acl_entry(0x1, 0x1, 0x0800)).ok);
    ASSERT_TRUE(dev.add_entry("acl", acl_entry(0x3, 0x3, 0x86dd)).ok);
    ASSERT_TRUE(dev.configure_meter("policer", 1, {8000.0, 200, 8000.0, 100}).ok);
}

// A snapshot without its timestamp: the reloaded device's clock has run on.
std::string snapshot_text(target::Device& dev) {
    control::StatusSnapshot snap = dev.snapshot();
    snap.taken_at_ns = 0;
    return snap.to_string();
}

std::vector<std::vector<std::uint8_t>> drain_all(target::Device& dev) {
    std::vector<std::vector<std::uint8_t>> out;
    for (int port = 0; port < dev.config().num_ports; ++port) {
        for (const auto& p : dev.drain_port(static_cast<std::uint32_t>(port))) {
            const auto bytes = p.bytes();
            out.emplace_back(bytes.begin(), bytes.end());
            out.back().push_back(static_cast<std::uint8_t>(port));
        }
    }
    return out;
}

TEST(ImageCache, ReloadingTheRunningProgramEqualsAFreshDevice) {
    const auto prog = std::shared_ptr<const Program>(
        p4::compile_source(kReloadProbe, "reload_probe"));
    for (const dataplane::Engine engine :
         {dataplane::Engine::interpreter, dataplane::Engine::compiled}) {
        SCOPED_TRACE(dataplane::engine_name(engine));
        target::DeviceConfig cfg;
        cfg.engine = engine;
        target::SimDevice dev(cfg);
        coverage::CoverageMap map;
        dev.set_taps_enabled(true);
        dev.set_digests_enabled(true);
        dev.set_coverage(&map);
        ASSERT_TRUE(dev.load(*prog));
        const dataplane::Image* image = dev.image();

        // Dirty every kind of state the load owns.
        const control::TableHandle route = dev.resolve_table("route");
        const control::TableHandle acl = dev.resolve_table("acl");
        const control::ExternHandle seen = dev.resolve_extern("seen");
        ASSERT_TRUE(dev.add_entry(route, route_entry(0x0a0000000000ull, 8, 1)).ok);
        ASSERT_TRUE(dev.add_entry(route, route_entry(0x0a0b00000000ull, 16, 2)).ok);
        ASSERT_TRUE(dev.add_entry(acl, acl_entry(0x3, 0x3, 0x1111)).ok);
        ASSERT_TRUE(dev.add_entry(acl, acl_entry(0x1, 0x1, 0x2222)).ok);
        ASSERT_TRUE(dev.set_default_action(route, "forward", {util::Bitvec(9, 3)}).ok);
        ASSERT_TRUE(dev.set_default_action(acl, "tag", {util::Bitvec(16, 0x3333)}).ok);
        ASSERT_TRUE(dev.write_register(seen, 0, util::Bitvec(16, 7)).ok);
        ASSERT_TRUE(dev.configure_meter("policer", 0, {1.0, 1, 1.0, 1}).ok);
        for (const auto& pkt : reload_stream()) dev.inject(pkt);
        ASSERT_FALSE(dev.tap_records().empty());

        ASSERT_TRUE(dev.load(*prog));
        EXPECT_EQ(dev.image(), image);  // kept, not rebuilt

        target::SimDevice fresh(cfg);
        coverage::CoverageMap fresh_map;
        fresh.set_taps_enabled(true);
        fresh.set_digests_enabled(true);
        fresh.set_coverage(&fresh_map);
        ASSERT_TRUE(fresh.load(*prog));
        EXPECT_EQ(snapshot_text(dev), snapshot_text(fresh));
        EXPECT_TRUE(dev.tap_records().empty());
        EXPECT_TRUE(dev.digest_records().empty());
        EXPECT_TRUE(drain_all(dev).empty());

        // Handles from before the reload are stale.
        const control::Status stale_table =
            dev.add_entry(route, route_entry(0x0c0000000000ull, 8, 1));
        EXPECT_FALSE(stale_table.ok);
        EXPECT_NE(stale_table.message.find("stale"), std::string::npos);
        const control::Status stale_extern =
            dev.write_register(seen, 0, util::Bitvec(16, 1));
        EXPECT_FALSE(stale_extern.ok);
        EXPECT_NE(stale_extern.message.find("stale"), std::string::npos);

        // The settings carried over.
        EXPECT_TRUE(dev.taps_enabled());
        EXPECT_TRUE(dev.digests_enabled());
        EXPECT_EQ(dev.coverage(), &map);
        EXPECT_EQ(dev.engine(), engine);

        // Same config, same stream: same outputs, digests, coverage, state.
        map.clear();
        configure_reload_probe(dev);
        configure_reload_probe(fresh);
        for (const auto& pkt : reload_stream()) {
            dev.inject(pkt);
            fresh.inject(pkt);
        }
        const auto outputs = drain_all(dev);
        EXPECT_FALSE(outputs.empty());
        EXPECT_EQ(outputs, drain_all(fresh));
        EXPECT_EQ(dev.digest_records(), fresh.digest_records());
        ASSERT_EQ(dev.tap_records().size(), fresh.tap_records().size());
        for (std::size_t i = 0; i < dev.tap_records().size(); ++i) {
            EXPECT_EQ(dev.tap_records()[i].result.disposition,
                      fresh.tap_records()[i].result.disposition);
        }
        EXPECT_NE(map, coverage::CoverageMap{});
        EXPECT_EQ(map, fresh_map);
        EXPECT_EQ(snapshot_text(dev), snapshot_text(fresh));
    }
}

TEST(ImageCache, StackOwnedProgramIsCopiedAndForwardsIdentically) {
    const Program stack = p4::compile_source(p4::programs::l2_switch(), "l2_switch")
                              ->clone();
    const auto shared = std::make_shared<const Program>(stack.clone());

    target::SimDevice copied({}), sharing({});
    ASSERT_TRUE(copied.load(stack));
    ASSERT_TRUE(sharing.load(*shared));
    EXPECT_NE(&copied.program(), &stack);  // a private copy
    EXPECT_EQ(&sharing.program(), shared.get());
    EXPECT_NE(copied.image(), sharing.image());  // different program objects

    const auto a = forward_once(copied);
    const auto b = forward_once(sharing);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[3].size(), 1u);
}

TEST(ImageCache, ConcurrentFirstLoadsShareOneImage) {
    constexpr int kThreads = 4;
    const auto prog = shared_program("tunnel");
    std::vector<std::unique_ptr<target::SimDevice>> devices;
    for (int i = 0; i < kThreads; ++i) {
        devices.push_back(std::make_unique<target::SimDevice>(target::DeviceConfig{}));
    }
    std::latch start(kThreads);
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            start.arrive_and_wait();
            ok[static_cast<std::size_t>(i)] = devices[static_cast<std::size_t>(i)]->load(*prog).ok;
        });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kThreads; ++i) {
        EXPECT_TRUE(ok[static_cast<std::size_t>(i)]);
        EXPECT_EQ(devices[static_cast<std::size_t>(i)]->image(), devices[0]->image());
    }
}

}  // namespace

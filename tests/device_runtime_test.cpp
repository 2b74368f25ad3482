// Management-plane round trips: RuntimeClient -> WireChannel ->
// LoopbackTransport -> ControlServer -> device.  Proves the paper's
// "dedicated interface" works end-to-end as messages, not as direct calls.
// Also drives the two in-device modules (generator + checker) and the
// external tester against a reference device.
#include <gtest/gtest.h>

#include "control/channel.h"
#include "control/transport.h"
#include "core/checker.h"
#include "core/generator.h"
#include "core/tools.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"
#include "tester/osnt.h"

namespace {

using namespace ndb;

// A host-side client wired to a device the way a host tool reaches it: a
// WireChannel over a clean LoopbackTransport.
struct Rig {
    std::unique_ptr<target::Device> device = target::make_reference_device();
    control::LoopbackTransport transport{device->runtime()};
    control::WireChannel channel{transport};
    control::RuntimeClient client{channel};

    void load(std::string_view source, std::string name) {
        const auto prog = p4::compile_source(source, std::move(name));
        ASSERT_TRUE(device->load(*prog));
    }
};

// A dmac op keyed on host_mac(host); `port` only matters for add_entry.
control::ConfigOp dmac_op(control::ConfigOp::Kind kind, int host,
                          std::uint32_t port = 0) {
    const packet::Mac mac = core::scenario::host_mac(host);
    control::ConfigOp op;
    op.kind = kind;
    op.target = "dmac";
    op.entry.key_values = {util::Bitvec::from_bytes(
        std::span<const std::uint8_t>(mac.data(), mac.size()), 48)};
    op.entry.action = "forward";
    op.entry.action_args = {util::Bitvec(9, port)};
    return op;
}

// An IPv4/UDP packet from port 0 to host_mac(host).
packet::Packet packet_to(int host) {
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.set_byte(5, static_cast<std::uint8_t>(host));
    pkt.meta.ingress_port = 0;
    return pkt;
}

TEST(DeviceRuntime, AddEntryProgramsTheDataPath) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");

    // Default action drops: nothing comes out before programming.
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    rig.device->inject(pkt);
    for (int port = 0; port < rig.device->config().num_ports; ++port) {
        EXPECT_EQ(rig.device->drain_port(static_cast<std::uint32_t>(port)).size(), 0u);
    }

    ASSERT_TRUE(core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(2), 3));
    EXPECT_EQ(rig.channel.stats().requests, 1u);

    rig.device->inject(pkt);
    auto out = rig.device->drain_port(3);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].same_bytes(pkt));
}

TEST(DeviceRuntime, BadRequestsFailOverTheChannel) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");

    control::EntrySpec entry;
    entry.key_values = {util::Bitvec(48, 1)};
    entry.action = "forward";
    entry.action_args = {util::Bitvec(9, 1)};

    EXPECT_FALSE(rig.client.add_entry("no_such_table", entry));
    entry.action = "no_such_action";
    EXPECT_FALSE(rig.client.add_entry("dmac", entry));
    entry.action = "forward";
    entry.action_args.clear();  // wrong arity
    EXPECT_FALSE(rig.client.add_entry("dmac", entry));

    util::Bitvec reg_out;
    EXPECT_FALSE(rig.client.read_register("no_such_register", 0, reg_out));
}

TEST(DeviceRuntime, RegisterCounterAndSnapshotRoundTrip) {
    Rig rig;
    rig.load(p4::programs::stats_monitor(), "stats_monitor");

    // stats_monitor bumps port_pkts[ingress_port] and port_bytes[ingress_port],
    // then forwards everything to port 2.
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 1;
    for (int i = 0; i < 3; ++i) rig.device->inject(pkt);

    util::Bitvec count;
    ASSERT_TRUE(rig.client.read_register("port_pkts", 1, count));
    EXPECT_EQ(count.to_u64(), 3u);

    control::CounterValue counter;
    ASSERT_TRUE(rig.client.read_counter("port_bytes", 1, counter));
    EXPECT_EQ(counter.packets, 3u);

    const control::StatusSnapshot snap = rig.client.snapshot();
    EXPECT_EQ(snap.stages.parser_in, 3u);
    EXPECT_EQ(snap.stages.forwarded, 3u);
    ASSERT_GT(snap.ports.size(), 2u);
    EXPECT_EQ(snap.ports[1].rx_packets, 3u);
    EXPECT_EQ(snap.ports[2].tx_packets, 3u);
    EXPECT_EQ(snap.unaccounted_packets(), 0);

    // Host-side writes land in the data plane's storage.
    ASSERT_TRUE(rig.client.write_register("port_pkts", 1, util::Bitvec(48, 41)));
    rig.device->inject(pkt);
    ASSERT_TRUE(rig.client.read_register("port_pkts", 1, count));
    EXPECT_EQ(count.to_u64(), 42u);

    // Out-of-range indices are rejected, not silently absorbed.
    EXPECT_FALSE(rig.client.read_register("port_pkts", 1u << 20, count));
}

TEST(DeviceRuntime, ResetStateClearsDynamicStateKeepsConfig) {
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");
    ASSERT_TRUE(core::scenario::add_l2_entry(rig.client, core::scenario::host_mac(2), 2));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    rig.device->inject(pkt);
    ASSERT_TRUE(rig.client.reset_state());

    control::StatusSnapshot snap = rig.client.snapshot();
    EXPECT_EQ(snap.stages.parser_in, 0u);
    EXPECT_EQ(snap.ports[0].rx_packets, 0u);
    ASSERT_FALSE(snap.tables.empty());
    EXPECT_EQ(snap.tables[0].hits, 0u);
    // The installed entry survives the soft reset.
    EXPECT_EQ(snap.tables[0].entries, 1u);
    rig.device->inject(pkt);
    EXPECT_EQ(rig.device->drain_port(2).size(), 1u);
}

TEST(DeviceRuntime, DeleteEntryAndClearTableOverTheWire) {
    using Kind = control::ConfigOp::Kind;
    Rig rig;
    rig.load(p4::programs::l2_switch(), "l2_switch");

    ASSERT_TRUE(rig.client.add_entry("dmac", dmac_op(Kind::add_entry, 2, 3).entry));
    ASSERT_TRUE(rig.client.add_entry("dmac", dmac_op(Kind::add_entry, 3, 1).entry));
    ASSERT_TRUE(rig.client.delete_entry("dmac", dmac_op(Kind::delete_entry, 2).entry));

    // The deleted entry's packet hits the drop default; the other forwards.
    rig.device->inject(packet_to(2));
    rig.device->inject(packet_to(3));
    EXPECT_EQ(rig.device->drain_port(3).size(), 0u);
    EXPECT_EQ(rig.device->drain_port(1).size(), 1u);

    ASSERT_TRUE(rig.client.clear_table("dmac"));
    const control::StatusSnapshot snap = rig.client.snapshot();
    ASSERT_EQ(snap.tables.size(), 1u);
    EXPECT_EQ(snap.tables[0].entries, 0u);

    // The same ops as one apply() batch on a direct device end in an
    // identical snapshot.  Both devices see two packets (the clock advances
    // per packet) and then zero their counters, so what is compared is the
    // configured state.
    auto direct = target::make_reference_device();
    const auto prog = p4::compile_source(p4::programs::l2_switch(), "l2_switch");
    ASSERT_TRUE(direct->load(*prog));
    const std::vector<control::ConfigOp> batch = {
        dmac_op(Kind::add_entry, 2, 3), dmac_op(Kind::add_entry, 3, 1),
        dmac_op(Kind::delete_entry, 2), dmac_op(Kind::clear_table, 0)};
    for (const control::Status& st : direct->apply(batch)) {
        EXPECT_TRUE(st.ok) << st.message;
    }
    direct->inject(packet_to(2));
    direct->inject(packet_to(3));
    ASSERT_TRUE(direct->reset_state());
    ASSERT_TRUE(rig.client.reset_state());
    EXPECT_EQ(direct->snapshot().to_string(), rig.client.snapshot().to_string());
}

// Streams `spec` through `device` with the two in-device modules: generate
// and inject every packet, drain every port into the checker, then settle
// the aggregate expectations.
core::CheckReport run_modules(target::Device& device, const core::TestSpec& spec) {
    core::TestPacketGenerator generator(spec);
    core::OutputPacketChecker checker(spec);
    for (std::uint64_t seq = 1; seq <= spec.count; ++seq) {
        device.inject(generator.make_packet(seq, device.now_ns()));
    }
    for (int port = 0; port < device.config().num_ports; ++port) {
        for (const auto& pkt : device.drain_port(static_cast<std::uint32_t>(port))) {
            checker.observe(pkt, static_cast<std::uint32_t>(port));
        }
    }
    return checker.finalize(spec.count);
}

core::Expectation expect_port(std::uint32_t port) {
    core::Expectation e;
    e.kind = core::Expectation::Kind::forwarded_on_port;
    e.port = port;
    return e;
}

core::Expectation expect_delivery(double fraction) {
    core::Expectation e;
    e.kind = core::Expectation::Kind::min_delivery;
    e.fraction = fraction;
    return e;
}

TEST(DeviceRuntime, GeneratorAndCheckerValidateAReferenceDevice) {
    auto device = target::make_reference_device();
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    // passthrough forwards everything to port 1; the P4 checker program
    // (reject_filter) drops whatever is not IPv4.
    core::TestSpec spec;
    spec.name = "passthrough";
    spec.tmpl.base = core::scenario::ipv4_udp_packet();
    spec.count = 8;
    spec.expectations = {expect_port(1), expect_delivery(1.0)};
    spec.checker = core::scenario::compile(p4::programs::reject_filter(), "reject_filter");

    const core::CheckReport ok = run_modules(*device, spec);
    EXPECT_TRUE(ok.passed) << ok.to_string();
    EXPECT_EQ(ok.observed, 8u);
    EXPECT_EQ(ok.violations, 0u);
    ASSERT_EQ(ok.rules.size(), 3u);
    EXPECT_EQ(ok.rules[0].checked, 8u);  // forwarded_on_port, per packet
    EXPECT_EQ(ok.rules[1].checked, 1u);  // min_delivery, once in finalize
    EXPECT_EQ(ok.rules[2].description, "P4 checker program accepts packet");
    EXPECT_EQ(ok.rules[2].checked, 8u);
    EXPECT_EQ(ok.rules[2].violations, 0u);
    EXPECT_EQ(ok.seq_gaps, 0u);
    EXPECT_EQ(ok.latency_ns.count(), 8u);

    // An ARP packet still leaves on port 1, but the P4 checker program
    // rejects it: exactly one violation, charged to that rule.
    spec.tmpl.base = core::scenario::arp_packet();
    spec.count = 1;
    const core::CheckReport arp = run_modules(*device, spec);
    EXPECT_FALSE(arp.passed);
    EXPECT_EQ(arp.observed, 1u);
    EXPECT_EQ(arp.violations, 1u);
    ASSERT_EQ(arp.rules.size(), 3u);
    EXPECT_EQ(arp.rules[0].violations, 0u);
    EXPECT_EQ(arp.rules[1].violations, 0u);
    EXPECT_EQ(arp.rules[2].checked, 1u);
    EXPECT_EQ(arp.rules[2].violations, 1u);
    ASSERT_EQ(arp.samples.size(), 1u);
    EXPECT_EQ(arp.samples[0].seq, 1u);
    EXPECT_EQ(arp.samples[0].port, 1u);

    // The wrong port and a short delivery are violations too.
    spec.tmpl.base = core::scenario::ipv4_udp_packet();
    spec.count = 4;
    spec.checker = nullptr;
    spec.expectations = {expect_port(2), expect_delivery(1.0)};
    const core::CheckReport wrong_port = run_modules(*device, spec);
    EXPECT_EQ(wrong_port.rules[0].violations, 4u);
    EXPECT_EQ(wrong_port.rules[1].violations, 0u);

    const auto filter = p4::compile_source(p4::programs::reject_filter(), "reject_filter");
    ASSERT_TRUE(device->load(*filter));
    spec.tmpl.base = core::scenario::arp_packet();
    const core::CheckReport dropped = run_modules(*device, spec);
    EXPECT_EQ(dropped.observed, 0u);
    EXPECT_EQ(dropped.rules[0].checked, 0u);
    EXPECT_EQ(dropped.rules[1].violations, 1u);
    EXPECT_FALSE(dropped.passed);
}

TEST(DeviceRuntime, CheckerComparesPreservedFieldsOnlyOnStampedPackets) {
    core::TestSpec spec;
    spec.tmpl.base = core::scenario::ipv4_udp_packet();
    spec.count = 1;
    core::Expectation keep_ttl;
    keep_ttl.kind = core::Expectation::Kind::field_preserved;
    keep_ttl.bit_offset = core::scenario::kIpv4TtlBit;
    keep_ttl.width = 8;
    spec.expectations = {keep_ttl};

    // Too short to carry a stamp, so there is no input to compare against:
    // the packet is observed but never checked.
    {
        core::OutputPacketChecker checker(spec);
        checker.observe(packet::Packet::zeros(8), 1);
        const core::CheckReport report = checker.finalize(1);
        EXPECT_EQ(report.observed, 1u);
        EXPECT_EQ(report.rules[0].checked, 0u) << report.to_string();
        EXPECT_EQ(report.rules[0].violations, 0u);
    }

    // A stamped packet is compared with the regenerated input.
    core::TestPacketGenerator generator(spec);
    packet::Packet out = generator.make_packet(1, 0);
    {
        core::OutputPacketChecker checker(spec);
        checker.observe(out, 1);
        const core::CheckReport report = checker.finalize(1);
        EXPECT_EQ(report.rules[0].checked, 1u);
        EXPECT_EQ(report.rules[0].violations, 0u);
    }
    out.set_u(core::scenario::kIpv4TtlBit, 8, 1);
    {
        core::OutputPacketChecker checker(spec);
        checker.observe(out, 1);
        const core::CheckReport report = checker.finalize(1);
        EXPECT_EQ(report.rules[0].checked, 1u);
        EXPECT_EQ(report.rules[0].violations, 1u);
    }
}

TEST(DeviceRuntime, GeneratorRunsItsP4MutatorOnEveryPacket) {
    // The mutator's `meta.seq` receives the sequence number after its
    // parser runs; this one writes it into the EtherType.
    const auto mutator = core::scenario::compile(R"P4(
header ethernet_t {
    bit<48> dstAddr;
    bit<48> srcAddr;
    bit<16> etherType;
}

struct headers { ethernet_t ethernet; }
struct metadata {
    bit<16> seq;
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
    apply {
        hdr.ethernet.etherType = meta.seq;
        smeta.egress_spec = 9w1;
    }
}

control MyDeparser(packet_out pkt, in headers hdr) {
    apply {
        pkt.emit(hdr.ethernet);
    }
}

NdpSwitch(MyParser(), MyIngress(), MyDeparser()) main;
)P4",
                                                 "seq_to_ethertype");

    core::TestSpec spec;
    spec.tmpl.base = core::scenario::ipv4_udp_packet();
    spec.mutator = mutator;
    core::TestPacketGenerator generator(spec);
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
        const packet::Packet pkt = generator.make_packet(seq, 1000 * seq);
        EXPECT_EQ(pkt.u(12 * 8, 16), seq);
        std::uint64_t stamped_seq = 0, stamped_ns = 0;
        ASSERT_TRUE(packet::read_stamp(pkt, stamped_seq, stamped_ns));
        EXPECT_EQ(stamped_seq, seq);
        EXPECT_EQ(stamped_ns, 1000 * seq);
    }
}

TEST(DeviceRuntime, MisdirectedPacketsAreCountedFirstClass) {
    // passthrough forwards everything to port 1; a one-port device has no
    // port 1, so the packet is forwarded by the pipeline yet never reaches a
    // queue.  The snapshot must name that loss instead of hiding it.
    target::DeviceConfig one_port;
    one_port.num_ports = 1;
    auto device = target::make_reference_device(one_port);
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;
    device->inject(pkt);
    EXPECT_EQ(device->drain_port(0).size(), 0u);

    const control::StatusSnapshot snap = device->snapshot();
    EXPECT_EQ(snap.stages.forwarded, 1u);
    EXPECT_EQ(snap.misdirected, 1u);
    EXPECT_EQ(snap.unaccounted_packets(), 1);
    EXPECT_NE(snap.to_string().find("misdirected=1"), std::string::npos);

    // reset_state clears it like every other dynamic counter.
    ASSERT_TRUE(device->reset_state());
    EXPECT_EQ(device->snapshot().misdirected, 0u);
}

TEST(DeviceRuntime, TapRingKeepsNewestRecordsAndHonoursZeroCap) {
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    packet::Packet pkt = core::scenario::ipv4_udp_packet();
    pkt.meta.ingress_port = 0;

    target::DeviceConfig small;
    small.max_tap_records = 4;
    auto device = target::make_reference_device(small);
    ASSERT_TRUE(device->load(*prog));
    device->set_taps_enabled(true);
    for (std::uint64_t seq = 1; seq <= 10; ++seq) {
        pkt.meta.id = seq;
        device->inject(pkt);
    }
    ASSERT_FALSE(device->tap_records().empty());
    EXPECT_LE(device->tap_records().size(), 4u);
    // The newest record survives eviction (the localizer reads back()).
    EXPECT_EQ(device->tap_records().back().input.meta.id, 10u);

    target::DeviceConfig none;
    none.max_tap_records = 0;
    auto quiet = target::make_reference_device(none);
    ASSERT_TRUE(quiet->load(*prog));
    quiet->set_taps_enabled(true);
    quiet->inject(pkt);  // must not crash or record
    EXPECT_TRUE(quiet->tap_records().empty());
    EXPECT_EQ(quiet->drain_port(1).size(), 1u);
}

TEST(DeviceRuntime, ExternalTesterMeasuresThroughThePorts) {
    auto device = target::make_reference_device();
    const auto prog = p4::compile_source(p4::programs::passthrough(), "passthrough");
    ASSERT_TRUE(device->load(*prog));

    tester::ExternalTester external(*device);
    tester::TrafficProfile profile;
    profile.template_packet = core::scenario::ipv4_udp_packet();
    profile.inject_port = 0;
    profile.count = 16;

    const tester::Measurement m = external.measure(profile);
    EXPECT_EQ(m.sent, 16u);
    EXPECT_EQ(m.received, 16u);
    EXPECT_DOUBLE_EQ(m.loss_fraction, 0.0);
    ASSERT_GT(m.received_per_port.size(), 1u);
    EXPECT_EQ(m.received_per_port[1], 16u);  // passthrough forwards to port 1
    // Egress stamping: tx = rx + cycles * ns_per_cycle, so latency is
    // observable and nonzero from the outside.
    EXPECT_GT(m.latency_max_ns, 0u);
    EXPECT_EQ(m.latency_ns.count(), 16u);
}

TEST(DeviceRuntime, BackendRegistryListsAndBuilds) {
    const auto names = target::registered_backends();
    ASSERT_GE(names.size(), 2u);
    EXPECT_NE(std::find(names.begin(), names.end(), "reference"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "sdnet"), names.end());

    EXPECT_EQ(target::make_device("no_such_backend"), nullptr);

    auto quirky = target::make_device("sdnet");
    ASSERT_NE(quirky, nullptr);
    EXPECT_TRUE(quirky->config().quirks.reject_as_accept);

    // Override: an sdnet device with only the depth limit active.
    dataplane::Quirks only_depth;
    only_depth.parser_depth_limit = 2;
    auto shallow = target::make_device("sdnet", only_depth);
    ASSERT_NE(shallow, nullptr);
    EXPECT_FALSE(shallow->config().quirks.reject_as_accept);
    EXPECT_EQ(shallow->config().quirks.parser_depth_limit, 2);

    // An explicit all-defaults override yields a quirk-free sdnet device.
    auto clean = target::make_device("sdnet", dataplane::Quirks{});
    ASSERT_NE(clean, nullptr);
    EXPECT_FALSE(clean->config().quirks.any());

    // Builtins cannot be shadowed, even by the very first registration.
    EXPECT_FALSE(target::register_backend(
        "sdnet", [](std::optional<dataplane::Quirks>) {
            return target::make_reference_device();
        }));
    EXPECT_TRUE(target::make_device("sdnet")->config().quirks.reject_as_accept);

    // Third-party backends register and build by name.
    EXPECT_TRUE(target::register_backend(
        "tofino_sim", [](std::optional<dataplane::Quirks> q) {
            target::DeviceConfig cfg;
            cfg.backend = "tofino_sim";
            cfg.num_ports = 32;
            if (q) cfg.quirks = *q;
            return target::make_reference_device(std::move(cfg));
        }));
    auto custom = target::make_device("tofino_sim");
    ASSERT_NE(custom, nullptr);
    EXPECT_EQ(custom->config().num_ports, 32);
    // The factory's backend name survives make_reference_device.
    EXPECT_EQ(custom->config().backend, "tofino_sim");

    // The deterministic clock starts at the epoch and only moves on traffic.
    auto dev = target::make_device("reference");
    const std::uint64_t t0 = dev->now_ns();
    EXPECT_EQ(t0, dev->config().epoch_ns);
    EXPECT_EQ(dev->now_ns(), t0);
}

}  // namespace

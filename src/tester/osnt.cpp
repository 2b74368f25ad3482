#include "tester/osnt.h"

#include <algorithm>

#include "util/strings.h"

namespace ndb::tester {

std::uint64_t ExternalTester::send(const TrafficProfile& profile) {
    const double interval_ns =
        profile.rate_pps > 0 ? 1e9 / profile.rate_pps : 0.0;
    std::uint64_t base_ns = device_.now_ns();
    for (std::uint64_t i = 0; i < profile.count; ++i) {
        packet::Packet pkt = profile.template_packet;
        pkt.meta.ingress_port = profile.inject_port;
        pkt.meta.rx_time_ns =
            base_ns + static_cast<std::uint64_t>(interval_ns * static_cast<double>(i));
        pkt.meta.id = next_seq_;
        if (profile.stamp_payload) {
            packet::write_stamp(pkt, next_seq_, pkt.meta.rx_time_ns);
        }
        ++next_seq_;
        device_.inject(std::move(pkt));
    }
    return profile.count;
}

std::vector<packet::Packet> ExternalTester::capture(std::uint32_t port) {
    return device_.drain_port(port);
}

Measurement ExternalTester::measure(const TrafficProfile& profile) {
    Measurement m;
    const std::uint64_t t0 = device_.now_ns();
    m.sent = send(profile);

    std::uint64_t first_rx = 0, last_rx = 0;
    std::uint64_t bytes = 0;
    m.received_per_port.assign(
        static_cast<std::size_t>(device_.config().num_ports), 0);
    for (int port = 0; port < device_.config().num_ports; ++port) {
        for (const auto& pkt : capture(static_cast<std::uint32_t>(port))) {
            ++m.received;
            ++m.received_per_port[static_cast<std::size_t>(port)];
            bytes += pkt.size();
            const std::uint64_t rx = pkt.meta.tx_time_ns;
            if (first_rx == 0 || rx < first_rx) first_rx = rx;
            last_rx = std::max(last_rx, rx);
            std::uint64_t seq = 0, stamped_ns = 0;
            if (profile.stamp_payload && packet::read_stamp(pkt, seq, stamped_ns) &&
                rx >= stamped_ns) {
                m.latency_ns.record(rx - stamped_ns);
                m.latency_max_ns = std::max(m.latency_max_ns, rx - stamped_ns);
            }
        }
    }
    m.loss_fraction =
        m.sent ? 1.0 - static_cast<double>(m.received) / static_cast<double>(m.sent)
               : 0.0;
    const double span_ns = static_cast<double>(
        last_rx > t0 ? last_rx - t0 : 1);
    m.achieved_pps = static_cast<double>(m.received) * 1e9 / span_ns;
    m.achieved_gbps = static_cast<double>(bytes) * 8.0 / span_ns;
    return m;
}

std::string Measurement::to_string() const {
    return util::format(
        "sent=%llu received=%llu loss=%.2f%% rate=%.0f pps (%.2f Gbps) "
        "lat p50=%llu p99=%llu max=%llu ns",
        static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(received), loss_fraction * 100.0,
        achieved_pps, achieved_gbps,
        static_cast<unsigned long long>(latency_ns.percentile(50)),
        static_cast<unsigned long long>(latency_ns.percentile(99)),
        static_cast<unsigned long long>(latency_max_ns));
}

}  // namespace ndb::tester

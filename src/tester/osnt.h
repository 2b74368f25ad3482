// External network tester (OSNT model [1]).
//
// An external tester connects to the device's front-panel ports only.  It
// can generate traffic, capture what comes back, and measure loss,
// throughput and latency from the OUTSIDE.  By construction this class
// never touches the device's internal surfaces (taps, status registers,
// resources, fault plan, control runtime) -- that missing "internal view"
// is exactly the limitation Figure 2 attributes to this tool class.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "packet/packet.h"
#include "target/device.h"

namespace ndb::tester {

struct TrafficProfile {
    packet::Packet template_packet;
    std::uint32_t inject_port = 0;
    std::uint64_t count = 1;
    double rate_pps = 0;        // 0 = back-to-back at line rate
    bool stamp_payload = true;  // packet::write_stamp into the payload tail
};

struct Measurement {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    double loss_fraction = 0.0;
    double achieved_pps = 0.0;
    double achieved_gbps = 0.0;
    obs::HistogramData latency_ns;
    std::uint64_t latency_max_ns = 0;
    std::vector<std::uint64_t> received_per_port;

    std::string to_string() const;
};

class ExternalTester {
public:
    explicit ExternalTester(target::Device& device) : device_(device) {}

    // Sends the profile's stream into the device.
    std::uint64_t send(const TrafficProfile& profile);

    // Collects everything pending on one port.
    std::vector<packet::Packet> capture(std::uint32_t port);

    // send + capture on all ports + statistics.
    Measurement measure(const TrafficProfile& profile);

private:
    target::Device& device_;
    std::uint64_t next_seq_ = 1;
};

}  // namespace ndb::tester

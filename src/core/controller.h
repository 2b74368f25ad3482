// NetDebug controller: the software tool on the host (paper Figure 1).
//
// Owns the dedicated management link to the device (a RuntimeClient over a
// WireChannel on a clean LoopbackTransport), programs the DUT and
// the two in-device modules (generator + checker), runs validation
// campaigns, and gathers results: check reports, status snapshots and the
// derived silent-loss accounting.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "control/channel.h"
#include "control/transport.h"
#include "core/checker.h"
#include "core/generator.h"
#include "core/testspec.h"
#include "target/device.h"

namespace ndb::core {

struct CampaignResult {
    GeneratorStats generator;
    CheckReport check;
    control::StatusSnapshot before;
    control::StatusSnapshot after;
    std::int64_t unaccounted_packets = 0;  // in-device silent losses
    std::int64_t misdirected = 0;          // forwarded to a nonexistent port
    bool passed = false;
    std::string summary;
};

class Controller {
public:
    explicit Controller(target::Device& device);

    // Compiles P4 source on the host and installs it through the backend.
    control::Status load_program(std::string_view source, std::string name);

    // Management-plane access over the dedicated interface.
    control::RuntimeApi& runtime() { return client_; }

    // Runs one validation campaign: configure generator + checker, stream
    // the packets, collect everything.
    CampaignResult run(const TestSpec& spec);

    // NetDebug sits inside the device; expose the internal surface.
    target::Device& device() { return device_; }

private:
    target::Device& device_;
    control::LoopbackTransport transport_;
    control::WireChannel channel_;
    control::RuntimeClient client_;
};

}  // namespace ndb::core

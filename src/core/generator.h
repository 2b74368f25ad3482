// Test packet generator: the first of NetDebug's two in-device hardware
// modules (paper Figure 1).
//
// Generates a deterministic packet stream from a TestSpec -- template field
// mutations, optional P4 mutator program, sequence/timestamp stamps -- that
// the caller injects directly into the data plane under test, bypassing the
// external interfaces.
#pragma once

#include <cstdint>
#include <memory>

#include "core/testspec.h"
#include "dataplane/pipeline.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"

namespace ndb::core {

class TestPacketGenerator {
public:
    explicit TestPacketGenerator(const TestSpec& spec);
    ~TestPacketGenerator();

    // Builds packet number `seq`, stamped with `seq` and `inject_ns`
    // (packet::write_stamp), ready to inject.
    packet::Packet make_packet(std::uint64_t seq, std::uint64_t inject_ns);

private:
    const TestSpec& spec_;

    // P4 mutator execution state (reference semantics, no quirks).
    std::unique_ptr<dataplane::TableSet> mut_tables_;
    std::unique_ptr<dataplane::StatefulSet> mut_stateful_;
    std::unique_ptr<dataplane::Pipeline> mut_pipeline_;
    p4::ir::FieldRef mut_seq_field_;
    std::uint64_t current_seq_ = 0;
};

}  // namespace ndb::core

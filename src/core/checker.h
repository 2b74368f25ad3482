// Output packet checker: the second of NetDebug's in-device modules.
//
// A streaming, constant-memory verifier: every output packet is checked
// against the spec's expectations the moment it leaves the pipeline, which
// is what lets the hardware version run at line rate.  Aggregate
// expectations (drop-all, delivery fraction, sequence continuity) are
// settled in finalize().  Optionally each packet also traverses a P4
// checker program; a drop by that program flags a violation, so the checks
// themselves are programmable in P4 as the paper requires.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/testspec.h"
#include "dataplane/pipeline.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "obs/metrics.h"

namespace ndb::core {

struct RuleStats {
    std::string description;
    std::uint64_t checked = 0;
    std::uint64_t violations = 0;
};

struct FailureSample {
    std::uint64_t seq = 0;
    std::uint32_t port = 0;
    std::string reason;
};

struct CheckReport {
    std::uint64_t observed = 0;
    std::uint64_t violations = 0;        // total across rules
    std::vector<RuleStats> rules;
    std::vector<FailureSample> samples;  // bounded
    obs::HistogramData latency_ns;       // log2 buckets, stamped packets
    std::uint64_t seq_gaps = 0;
    std::uint64_t seq_dups_or_reorder = 0;
    bool passed = false;

    std::string to_string() const;
};

class OutputPacketChecker {
public:
    explicit OutputPacketChecker(const TestSpec& spec,
                                 std::size_t max_failure_samples = 16);
    ~OutputPacketChecker();

    // Streaming observation of one output packet on `port`.
    void observe(const packet::Packet& pkt, std::uint32_t port);

    // Settles aggregate expectations given how many packets were injected.
    CheckReport finalize(std::uint64_t injected_count);

private:
    void record_violation(std::size_t rule, const packet::Packet& pkt,
                          std::uint32_t port, std::string reason);

    const TestSpec& spec_;
    std::size_t max_samples_;
    CheckReport report_;

    std::uint64_t next_expected_seq_ = 1;
    std::uint64_t max_seq_seen_ = 0;

    // P4 checker program state.
    std::unique_ptr<dataplane::TableSet> chk_tables_;
    std::unique_ptr<dataplane::StatefulSet> chk_stateful_;
    std::unique_ptr<dataplane::Pipeline> chk_pipeline_;
    std::size_t p4_rule_index_ = static_cast<std::size_t>(-1);
};

}  // namespace ndb::core

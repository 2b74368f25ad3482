#include "core/checker.h"

#include "util/strings.h"

namespace ndb::core {

std::string CheckReport::to_string() const {
    std::string s = util::format(
        "observed=%llu violations=%llu gaps=%llu dup/reorder=%llu -> %s\n",
        static_cast<unsigned long long>(observed),
        static_cast<unsigned long long>(violations),
        static_cast<unsigned long long>(seq_gaps),
        static_cast<unsigned long long>(seq_dups_or_reorder),
        passed ? "PASS" : "FAIL");
    for (const auto& r : rules) {
        s += util::format("  rule [%s]: checked=%llu violations=%llu\n",
                          r.description.c_str(),
                          static_cast<unsigned long long>(r.checked),
                          static_cast<unsigned long long>(r.violations));
    }
    for (const auto& f : samples) {
        s += util::format("  sample: seq=%llu port=%u %s\n",
                          static_cast<unsigned long long>(f.seq), f.port,
                          f.reason.c_str());
    }
    return s;
}

OutputPacketChecker::OutputPacketChecker(const TestSpec& spec,
                                         std::size_t max_failure_samples)
    : spec_(spec), max_samples_(max_failure_samples) {
    for (const auto& e : spec_.expectations) {
        report_.rules.push_back({e.describe(), 0, 0});
    }
    if (spec_.checker) {
        const auto& prog = *spec_.checker;
        chk_tables_ = std::make_unique<dataplane::TableSet>(prog, 0, false);
        chk_stateful_ = std::make_unique<dataplane::StatefulSet>(prog);
        chk_pipeline_ = std::make_unique<dataplane::Pipeline>(
            dataplane::image_for(spec_.checker, {}), *chk_tables_, *chk_stateful_);
        p4_rule_index_ = report_.rules.size();
        report_.rules.push_back({"P4 checker program accepts packet", 0, 0});
    }
}

OutputPacketChecker::~OutputPacketChecker() = default;

void OutputPacketChecker::record_violation(std::size_t rule,
                                           const packet::Packet& pkt,
                                           std::uint32_t port, std::string reason) {
    ++report_.rules[rule].violations;
    ++report_.violations;
    if (report_.samples.size() < max_samples_) {
        std::uint64_t seq = 0, t = 0;
        packet::read_stamp(pkt, seq, t);
        report_.samples.push_back({seq, port, std::move(reason)});
    }
}

void OutputPacketChecker::observe(const packet::Packet& pkt, std::uint32_t port) {
    ++report_.observed;

    std::uint64_t seq = 0, stamp_ns = 0;
    const bool stamped = packet::read_stamp(pkt, seq, stamp_ns);
    if (stamped && pkt.meta.tx_time_ns >= stamp_ns) {
        report_.latency_ns.record(pkt.meta.tx_time_ns - stamp_ns);
    }
    if (stamped) {
        if (seq == next_expected_seq_) {
            ++next_expected_seq_;
        } else if (seq > next_expected_seq_) {
            report_.seq_gaps += seq - next_expected_seq_;
            next_expected_seq_ = seq + 1;
        } else {
            ++report_.seq_dups_or_reorder;
        }
        max_seq_seen_ = std::max(max_seq_seen_, seq);
    }

    for (std::size_t i = 0; i < spec_.expectations.size(); ++i) {
        const Expectation& e = spec_.expectations[i];
        auto& rule = report_.rules[i];
        switch (e.kind) {
            case Expectation::Kind::forwarded_on_port: {
                ++rule.checked;
                if (port != e.port) {
                    record_violation(i, pkt, port,
                                     util::format("expected port %u, saw port %u",
                                                  e.port, port));
                }
                break;
            }
            case Expectation::Kind::all_dropped: {
                ++rule.checked;
                record_violation(i, pkt, port,
                                 "packet observed although all must be dropped");
                break;
            }
            case Expectation::Kind::field_equals: {
                ++rule.checked;
                if (pkt.size() * 8 < e.bit_offset + static_cast<std::size_t>(e.width)) {
                    record_violation(i, pkt, port, "packet too short for field");
                    break;
                }
                const util::Bitvec got = pkt.extract_bits(e.bit_offset, e.width);
                if (!got.eq(e.value.resize(e.width))) {
                    record_violation(
                        i, pkt, port,
                        util::format("field@%zu:%d = %s, expected %s", e.bit_offset,
                                     e.width, got.to_hex().c_str(),
                                     e.value.resize(e.width).to_hex().c_str()));
                }
                break;
            }
            case Expectation::Kind::field_preserved: {
                // Compare against the regenerated input for this sequence.
                if (!stamped) break;
                ++rule.checked;
                const packet::Packet original = instantiate(spec_.tmpl, seq);
                if (original.size() * 8 <
                        e.bit_offset + static_cast<std::size_t>(e.width) ||
                    pkt.size() * 8 <
                        e.bit_offset + static_cast<std::size_t>(e.width)) {
                    record_violation(i, pkt, port, "packet too short for field");
                    break;
                }
                const util::Bitvec want = original.extract_bits(e.bit_offset, e.width);
                const util::Bitvec got = pkt.extract_bits(e.bit_offset, e.width);
                if (!got.eq(want)) {
                    record_violation(
                        i, pkt, port,
                        util::format("field@%zu:%d changed: %s -> %s", e.bit_offset,
                                     e.width, want.to_hex().c_str(),
                                     got.to_hex().c_str()));
                }
                break;
            }
            case Expectation::Kind::latency_below_ns: {
                if (!stamped) break;
                ++rule.checked;
                const std::uint64_t lat =
                    pkt.meta.tx_time_ns >= stamp_ns ? pkt.meta.tx_time_ns - stamp_ns
                                                    : 0;
                if (lat > e.latency_ns) {
                    record_violation(i, pkt, port,
                                     util::format("latency %llu ns > bound %llu ns",
                                                  static_cast<unsigned long long>(lat),
                                                  static_cast<unsigned long long>(
                                                      e.latency_ns)));
                }
                break;
            }
            case Expectation::Kind::seq_contiguous:
            case Expectation::Kind::min_delivery:
                break;  // settled in finalize()
        }
    }

    if (chk_pipeline_) {
        auto& rule = report_.rules[p4_rule_index_];
        ++rule.checked;
        packet::Packet staged = pkt;
        staged.meta.ingress_port = 0;
        const dataplane::PipelineResult result = chk_pipeline_->process(staged);
        if (result.disposition != dataplane::Disposition::forwarded) {
            record_violation(p4_rule_index_, pkt, port,
                             "P4 checker program rejected the packet");
        }
    }
}

CheckReport OutputPacketChecker::finalize(std::uint64_t injected_count) {
    for (std::size_t i = 0; i < spec_.expectations.size(); ++i) {
        const Expectation& e = spec_.expectations[i];
        auto& rule = report_.rules[i];
        switch (e.kind) {
            case Expectation::Kind::seq_contiguous: {
                ++rule.checked;
                if (report_.seq_gaps || report_.seq_dups_or_reorder) {
                    ++rule.violations;
                    ++report_.violations;
                }
                break;
            }
            case Expectation::Kind::min_delivery: {
                ++rule.checked;
                const double delivered =
                    injected_count ? static_cast<double>(report_.observed) /
                                         static_cast<double>(injected_count)
                                   : 1.0;
                if (delivered + 1e-12 < e.fraction) {
                    ++rule.violations;
                    ++report_.violations;
                    if (report_.samples.size() < max_samples_) {
                        report_.samples.push_back(
                            {0, 0,
                             util::format("delivery %.1f%% below %.1f%%",
                                          delivered * 100.0, e.fraction * 100.0)});
                    }
                }
                break;
            }
            default:
                break;
        }
    }
    report_.passed = report_.violations == 0;
    return report_;
}

}  // namespace ndb::core

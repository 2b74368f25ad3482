#include "core/generator.h"

#include "util/strings.h"

namespace ndb::core {

std::string GeneratorStats::to_string() const {
    return util::format("injected=%llu span=[%llu..%llu]ns offered=%.0f pps",
                        static_cast<unsigned long long>(injected),
                        static_cast<unsigned long long>(first_inject_ns),
                        static_cast<unsigned long long>(last_inject_ns),
                        offered_pps);
}

TestPacketGenerator::TestPacketGenerator(const TestSpec& spec) : spec_(spec) {
    if (spec_.mutator) {
        const auto& prog = *spec_.mutator;
        mut_tables_ = std::make_unique<dataplane::TableSet>(prog, 0, false);
        mut_stateful_ = std::make_unique<dataplane::StatefulSet>(prog);
        if (prog.usermeta >= 0) {
            const int f =
                prog.headers[static_cast<std::size_t>(prog.usermeta)].field_index(
                    "seq");
            if (f >= 0) mut_seq_field_ = {prog.usermeta, f};
        }
        dataplane::PipelineOptions options;
        // Deliver the sequence number into the mutator's `meta.seq` right
        // after its parser ran, so the P4 program can compute fields from it.
        options.stage_hook = [this, &prog](dataplane::Stage stage,
                                           dataplane::PacketState& state) {
            if (stage == dataplane::Stage::parser && mut_seq_field_.valid()) {
                const int w = prog.field(mut_seq_field_).width;
                state.set(mut_seq_field_, util::Bitvec(w, current_seq_));
            }
        };
        mut_pipeline_ = std::make_unique<dataplane::Pipeline>(
            dataplane::image_for(spec_.mutator, {}), *mut_tables_, *mut_stateful_,
            std::move(options));
    }
}

TestPacketGenerator::~TestPacketGenerator() = default;

void TestPacketGenerator::write_stamp(packet::Packet& pkt, std::uint64_t seq,
                                      std::uint64_t t_ns) {
    if (pkt.size() < kStampBytes + 14) pkt.resize(kStampBytes + 14);
    const std::size_t base = pkt.size() - kStampBytes;
    for (int i = 0; i < 8; ++i) {
        pkt.set_byte(base + static_cast<std::size_t>(i),
                     static_cast<std::uint8_t>(seq >> (56 - 8 * i)));
        pkt.set_byte(base + 8 + static_cast<std::size_t>(i),
                     static_cast<std::uint8_t>(t_ns >> (56 - 8 * i)));
    }
}

bool TestPacketGenerator::read_stamp(const packet::Packet& pkt, std::uint64_t& seq,
                                     std::uint64_t& t_ns) {
    if (pkt.size() < kStampBytes) return false;
    const std::size_t base = pkt.size() - kStampBytes;
    seq = 0;
    t_ns = 0;
    for (int i = 0; i < 8; ++i) {
        seq = (seq << 8) | pkt.byte(base + static_cast<std::size_t>(i));
        t_ns = (t_ns << 8) | pkt.byte(base + 8 + static_cast<std::size_t>(i));
    }
    return true;
}

packet::Packet TestPacketGenerator::make_packet(std::uint64_t seq,
                                                std::uint64_t inject_ns) {
    packet::Packet pkt = instantiate(spec_.tmpl, seq);

    if (mut_pipeline_) {
        // Run the P4 mutator on the candidate packet.  The convention: the
        // mutator's user metadata field `seq` receives the sequence number;
        // the generated packet is whatever the program forwards.  A mutator
        // that drops is a configuration error; the template packet is used.
        packet::Packet staged = pkt;
        staged.meta.ingress_port = 0;
        staged.meta.rx_time_ns = inject_ns;
        current_seq_ = seq;
        dataplane::PipelineResult result = mut_pipeline_->process(staged);
        if (result.disposition == dataplane::Disposition::forwarded &&
            !result.output.empty()) {
            pkt = result.output;
        }
    }

    pkt.meta.id = seq;
    pkt.meta.ingress_port = spec_.inject_port;
    pkt.meta.rx_time_ns = inject_ns;
    write_stamp(pkt, seq, inject_ns);
    return pkt;
}

GeneratorStats TestPacketGenerator::run(target::Device& device) {
    GeneratorStats stats;
    const double interval_ns = spec_.rate_pps > 0 ? 1e9 / spec_.rate_pps : 0.0;
    const std::uint64_t base_ns = device.now_ns();
    for (std::uint64_t seq = 1; seq <= spec_.count; ++seq) {
        const std::uint64_t t =
            base_ns + static_cast<std::uint64_t>(interval_ns *
                                                 static_cast<double>(seq - 1));
        packet::Packet pkt = make_packet(seq, t);
        if (stats.injected == 0) stats.first_inject_ns = t;
        stats.last_inject_ns = t;
        ++stats.injected;
        device.inject(std::move(pkt));
    }
    const double span =
        static_cast<double>(stats.last_inject_ns - stats.first_inject_ns) + 1.0;
    stats.offered_pps = static_cast<double>(stats.injected) * 1e9 / span;
    return stats;
}

}  // namespace ndb::core

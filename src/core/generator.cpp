#include "core/generator.h"

namespace ndb::core {

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
    packet::write_stamp(pkt, seq, inject_ns);
    return pkt;
}

}  // namespace ndb::core

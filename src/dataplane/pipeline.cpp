#include "dataplane/pipeline.h"

#include "coverage/coverage.h"
#include "dataplane/deparser.h"
#include "obs/metrics.h"

namespace ndb::dataplane {

const char* disposition_name(Disposition d) {
    switch (d) {
        case Disposition::forwarded: return "forwarded";
        case Disposition::dropped_parser: return "dropped(parser)";
        case Disposition::dropped_ingress: return "dropped(ingress)";
        case Disposition::dropped_egress: return "dropped(egress)";
    }
    return "?";
}

const char* stage_name(Stage stage) {
    switch (stage) {
        case Stage::parser: return "parser";
        case Stage::ingress: return "ingress";
        case Stage::egress: return "egress";
        case Stage::deparser: return "deparser";
    }
    return "?";
}

Pipeline::Pipeline(std::shared_ptr<const Image> image, TableSet& tables,
                   StatefulSet& stateful, PipelineOptions options)
    : image_(std::move(image)),
      prog_(image_->program),
      options_(std::move(options)),
      parser_(prog_, image_->quirks),
      interp_(*image_, tables, stateful),
      compiled_(*image_, tables, stateful),
      quirk_expiry_clock_(image_->quirks.expiry_off_by_one &&
                          image_->reads_timestamp),
      state_(image_->layout) {}

void Pipeline::set_coverage(coverage::CoverageMap* map, std::uint64_t salt) {
    coverage_ = map;
    parser_.set_coverage(map, salt);
    interp_.set_coverage(map, salt);
    compiled_.set_coverage(map, salt);
}

PipelineResult Pipeline::process(const packet::Packet& in) {
    PipelineResult result;
    ++counters_.parser_in;

    // Telemetry (observe-only): the packet counter is exact; the per-stage
    // clocks run on a 1/16 per-thread sample so the extra clock_gettime
    // calls stay inside the bench overhead gate.  Whole-packet latency is
    // recorded by the guard below on every exit path, early returns
    // included.
    const bool obs_engine = options_.engine == Engine::compiled;
    bool timed = false;
    std::uint64_t t_mark = 0;
    if (obs::metrics_on()) {
        obs::count(obs::Counter::packets);
        timed = obs::sample_packet();
        if (timed) {
            obs::count(obs::Counter::packets_sampled);
            t_mark = obs::now_ns();
        }
    }
    struct PacketTimer {
        bool on;
        std::uint64_t t0;
        obs::Hist hist;
        ~PacketTimer() {
            if (on) obs::record(hist, obs::now_ns() - t0);
        }
    } packet_timer{timed, t_mark, obs::pipeline_hist(3, obs_engine)};

    state_.reset(in.meta, static_cast<std::uint32_t>(in.size()));
    if (quirk_expiry_clock_) {
        // expiry_off_by_one quirk: the aging clock latch loses its low
        // microsecond bit, so stored last-seen stamps and timeout deltas sit
        // one off the reference near the expiry boundary.  One site covers
        // both engines: the stages read whatever f_timestamp holds.
        state_.set(prog_.f_timestamp,
                   util::Bitvec(48, (in.meta.rx_time_ns / 1000) & ~1ull));
    }
    PacketState& state = state_;

    CompiledPipeline* const compiled =
        options_.engine == Engine::compiled ? &compiled_ : nullptr;
    const ParserVerdict verdict =
        compiled ? compiled->run_parser(in, state) : parser_.run(in, state);
    if (timed) {
        const std::uint64_t t = obs::now_ns();
        obs::record(obs::pipeline_hist(0, obs_engine), t - t_mark);
        t_mark = t;
    }
    result.parser_verdict = verdict;
    switch (verdict) {
        case ParserVerdict::accept:
            ++counters_.parser_accepted;
            break;
        case ParserVerdict::reject:
            ++counters_.parser_rejected;
            break;
        default:
            ++counters_.parser_errors;
            break;
    }
    if (options_.capture_taps) result.tap_after_parser = state;
    if (options_.capture_digests) {
        result.stage_hash[0] = hash_packet_state(prog_, state);
    }
    if (verdict != ParserVerdict::accept) {
        result.disposition = Disposition::dropped_parser;
        result.cycles = state.cycles;
        return result;
    }
    if (options_.stage_hook) {
        options_.stage_hook(Stage::parser, state);
        if (state.vanished) {
            result.silent_drop = true;
            result.silent_drop_stage = Stage::parser;
            result.disposition = Disposition::dropped_parser;
            result.cycles = state.cycles;
            return result;
        }
    }

    if (compiled) {
        compiled->run_ingress(state);
    } else {
        interp_.run_control(prog_.ingress, state);
    }
    if (options_.capture_taps) result.tap_after_ingress = state;
    if (options_.capture_digests) {
        result.stage_hash[1] = hash_packet_state(prog_, state);
    }
    if (state.drop_flagged(prog_)) {
        ++counters_.ingress_dropped;
        result.disposition = Disposition::dropped_ingress;
        result.cycles = state.cycles;
        return result;
    }
    if (options_.stage_hook) {
        options_.stage_hook(Stage::ingress, state);
        if (state.vanished) {
            result.silent_drop = true;
            result.silent_drop_stage = Stage::ingress;
            result.disposition = Disposition::dropped_ingress;
            result.cycles = state.cycles;
            return result;
        }
    }

    // Traffic manager: commit egress_spec to egress_port.
    const std::uint64_t port = state.egress_spec(prog_);
    state.set(prog_.f_egress_port, util::Bitvec(9, port));

    if (prog_.egress) {
        state.exited = false;
        if (compiled) {
            compiled->run_egress(state);
        } else {
            interp_.run_control(*prog_.egress, state);
        }
        if (options_.capture_taps) result.tap_after_egress = state;
        if (options_.capture_digests) {
            result.stage_hash[2] = hash_packet_state(prog_, state);
        }
        if (state.drop_flagged(prog_)) {
            ++counters_.egress_dropped;
            result.disposition = Disposition::dropped_egress;
            result.cycles = state.cycles;
            return result;
        }
    }
    if (options_.stage_hook) {
        options_.stage_hook(Stage::egress, state);
        if (state.vanished) {
            result.silent_drop = true;
            result.silent_drop_stage = Stage::egress;
            result.disposition = Disposition::dropped_egress;
            result.cycles = state.cycles;
            return result;
        }
    }

    // Match-action covers everything between the parser mark and here
    // (ingress + traffic manager + egress); drop paths fold their partial
    // match-action time into the whole-packet histogram only.
    if (timed) {
        const std::uint64_t t = obs::now_ns();
        obs::record(obs::pipeline_hist(1, obs_engine), t - t_mark);
        t_mark = t;
    }
    result.output = compiled ? compiled->deparse(state) : deparse(prog_, state);
    if (timed) {
        obs::record(obs::pipeline_hist(2, obs_engine), obs::now_ns() - t_mark);
    }
    result.output.meta.egress_port = static_cast<std::uint32_t>(port);
    result.egress_port = static_cast<std::uint32_t>(port);
    result.disposition = Disposition::forwarded;
    result.cycles = state.cycles + 1;  // deparser cycle
    ++counters_.forwarded;
    return result;
}

}  // namespace ndb::dataplane

// The traced uniform-sweep runner and the per-layer accounting over spans.
#include <algorithm>
#include <cstdio>

#include "core/localize.h"
#include "perfbench.h"
#include "util/strings.h"

namespace perfbench {

using ndb::core::CampaignConfig;
using ndb::core::CampaignReport;

namespace {

// The per-(scenario, DUT) management fault-schedule seed, mixed exactly as
// execute_scenario() mixes it, so the traced replay sees the same schedule.
std::uint64_t mgmt_seed(std::uint64_t plan_seed, const ndb::core::Scenario& sc,
                        std::size_t dut_index) {
    std::uint64_t h = plan_seed;
    h ^= ndb::util::fnv1a_64(sc.program);
    h ^= sc.seed * 0x9e3779b97f4a7c15ull;
    h ^= (dut_index + 1) * 0xc2b2ae3d27d4eb4full;
    return h;
}

}  // namespace

CampaignReport traced_uniform_run(const CampaignConfig& config, bool long_stream,
                                  Tracer& tr) {
    using namespace ndb::core;
    const std::vector<BackendSpec> duts = resolve_duts(config);
    const SpecGenerator gen(config.programs);
    WorkerContext ctx(config.reference_backend, duts, config.engine);

    MgmtLink base;
    base.plan = ndb::control::FaultPlan::parse(config.mgmt_fault_plan);
    base.enabled = base.plan.enabled();
    const std::size_t batch = config.batch_size;

    CampaignReport report;
    report.base_seed = config.base_seed;
    report.scenarios = config.scenarios;
    report.programs = gen.programs();
    report.engine = ndb::dataplane::engine_name(config.engine);
    for (const auto& d : duts) report.backends.push_back(d.label);
    report.mgmt_enabled = base.enabled;
    ReportBuilder builder(report);

    for (std::uint64_t i = 0; i < config.scenarios; ++i) {
        tr.set_scenario(i + 1);
        const std::uint32_t scenario = tr.open(SpanName::scenario);

        std::uint32_t h = tr.open(SpanName::specgen);
        const Scenario sc = long_stream
                                ? long_stream_scenario(gen, config.base_seed + i)
                                : gen.make(config.base_seed + i);
        const std::vector<ndb::packet::Packet> packets = scenario_packets(sc);
        tr.close(h);

        ScenarioOutcome outcome;
        h = tr.open(SpanName::detect);
        const DeviceRun ref_run = run_scenario_on(*ctx.reference, sc, packets, batch);
        tr.close(h);
        outcome.packets += ref_run.injected;

        for (std::size_t d = 0; d < duts.size(); ++d) {
            ndb::target::Device& dut = *ctx.duts[d];
            MgmtLink link = base;
            const MgmtLink* mgmt = nullptr;
            if (link.enabled) {
                link.plan.seed = mgmt_seed(base.plan.seed, sc, d);
                mgmt = &link;
            }
            h = tr.open(SpanName::detect);
            const DeviceRun dut_run =
                run_scenario_on(dut, sc, packets, batch, mgmt, &outcome.mgmt);
            tr.close(h);
            outcome.packets += dut_run.injected;

            h = tr.open(SpanName::compare);
            const auto raw = diff_runs(dut_run, ref_run);
            tr.close(h);
            if (!raw) continue;

            DivergenceRecord rec;
            rec.seed = sc.seed;
            rec.backend = duts[d].label;
            rec.program = sc.program;
            rec.quirk_signature = dut.config().quirks.signature();
            rec.kind = raw->kind;
            rec.detail = raw->detail;
            rec.first_diverging_packet = raw->first_diverging_packet;

            if (config.minimize) {
                h = tr.open(SpanName::minimize);
                for (std::size_t k = 1; k <= packets.size(); ++k) {
                    const std::vector<ndb::packet::Packet> prefix(
                        packets.begin(), packets.begin() + k);
                    const DeviceRun r =
                        run_scenario_on(*ctx.reference, sc, prefix, batch);
                    const DeviceRun u = run_scenario_on(dut, sc, prefix, batch,
                                                        mgmt, &outcome.mgmt);
                    outcome.packets += r.injected + u.injected;
                    ++tr.at(h).items;
                    if (diff_runs(u, r)) {
                        rec.minimized_count = k;
                        rec.minimized_reproduces = true;
                        break;
                    }
                }
                tr.close(h);
            }

            const std::uint64_t trigger =
                rec.minimized_count ? rec.minimized_count : packets.size();
            if (config.localize && trigger > 0) {
                h = tr.open(SpanName::localize);
                const std::vector<ndb::packet::Packet> warmup(
                    packets.begin(), packets.begin() + (trigger - 1));
                const DeviceRun r =
                    run_scenario_on(*ctx.reference, sc, warmup, batch);
                const DeviceRun u =
                    run_scenario_on(dut, sc, warmup, batch, mgmt, &outcome.mgmt);
                outcome.packets += r.injected + u.injected;
                FaultLocalizer localizer(dut, *ctx.reference);
                rec.localized = localizer.localize_binary(packets[trigger - 1]);
                outcome.packets += rec.localized.packets_replayed;
                tr.close(h);
            }

            const std::string stage =
                rec.localized.diverged
                    ? ndb::dataplane::stage_name(rec.localized.stage)
                    : (rec.kind == "config"  ? "control"
                       : rec.kind == "mgmt"  ? "mgmt"
                       : rec.kind == "state" ? "state"
                                             : "unlocalized");
            rec.fingerprint = rec.backend + "|" + rec.quirk_signature + "|" + stage;
            outcome.findings.push_back(std::move(rec));
        }
        tr.at(scenario).divergent = !outcome.findings.empty();

        h = tr.open(SpanName::merge);
        builder.fold(outcome);
        tr.close(h);
        tr.close(scenario);
    }
    tr.set_scenario(0);
    return report;
}

LayerSplit split_layers(const Tracer& tracer, std::uint64_t wall_start_ns,
                        std::uint64_t wall_end_ns) {
    LayerSplit out;
    const std::vector<Span>& spans = tracer.spans();
    // Whole nanoseconds, so a zero self time adds up to exactly zero.
    std::vector<std::int64_t> self(static_cast<std::size_t>(SpanName::count_), 0);
    // Every row exists, zero when a workload bypasses the layer.
    for (std::size_t i = 0; i < self.size(); ++i) {
        const std::string layer = span_layer(static_cast<SpanName>(i));
        out.spans[layer] = 0;
        out.items[layer] = 0;
    }
    for (const SpanName phase : {SpanName::detect, SpanName::minimize,
                                 SpanName::localize, SpanName::relight}) {
        out.loads_by_phase[span_layer(phase)] = 0;
        out.injects_by_phase[span_layer(phase)] = 0;
    }
    std::int64_t roots = 0;
    for (const Span& s : spans) {
        const auto dur = static_cast<std::int64_t>(s.end_ns - s.start_ns);
        self[static_cast<std::size_t>(s.name)] += dur;
        const std::string layer = span_layer(s.name);
        ++out.spans[layer];
        out.items[layer] += s.items;
        if (s.parent == 0) {
            roots += dur;
        } else {
            self[static_cast<std::size_t>(spans[s.parent - 1].name)] -= dur;
        }
        if (s.name == SpanName::load || s.name == SpanName::inject) {
            // The phase a device call ran in: its nearest phase ancestor.
            std::string phase = "none";
            for (std::uint32_t p = s.parent; p != 0; p = spans[p - 1].parent) {
                const SpanName n = spans[p - 1].name;
                if (n == SpanName::detect || n == SpanName::minimize ||
                    n == SpanName::localize || n == SpanName::relight) {
                    phase = span_layer(n);
                    break;
                }
            }
            auto& tally = s.name == SpanName::load ? out.loads_by_phase
                                                   : out.injects_by_phase;
            ++tally[phase];
        }
        if (s.name == SpanName::scenario) {
            const double us = static_cast<double>(dur) * 1e-3;
            (s.divergent ? out.scenario_us_divergent : out.scenario_us_clean)
                .push_back(us);
        }
    }
    for (std::size_t i = 0; i < self.size(); ++i) {
        out.self_s[span_layer(static_cast<SpanName>(i))] =
            static_cast<double>(self[i]) * 1e-9;
    }
    const auto wall = static_cast<std::int64_t>(wall_end_ns - wall_start_ns);
    out.wall_s = static_cast<double>(wall) * 1e-9;
    out.residual_s = static_cast<double>(wall - roots) * 1e-9;
    return out;
}

std::string check_trace(const std::vector<Span>& spans, std::uint64_t wall_start_ns,
                        std::uint64_t wall_end_ns) {
    const auto describe = [&](std::size_t i) {
        return "span " + std::to_string(i + 1) + " (" + span_layer(spans[i].name) +
               ")";
    };
    if (wall_end_ns < wall_start_ns) return "the traced wall ends before it starts";
    // children[p]: the spans whose parent is p (0 = the roots).
    std::vector<std::vector<std::size_t>> children(spans.size() + 1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        if (s.end_ns < s.start_ns) return describe(i) + " ends before it starts";
        if (s.parent > spans.size() || s.parent == i + 1) {
            return describe(i) + " has no valid parent";
        }
        children[s.parent].push_back(i);
    }
    for (std::size_t p = 0; p < children.size(); ++p) {
        const std::uint64_t lo = p == 0 ? wall_start_ns : spans[p - 1].start_ns;
        const std::uint64_t hi = p == 0 ? wall_end_ns : spans[p - 1].end_ns;
        const auto outer = [&] {
            return p == 0 ? std::string("the traced wall") : describe(p - 1);
        };
        std::vector<std::size_t>& kids = children[p];
        std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
            return spans[a].start_ns < spans[b].start_ns;
        });
        std::uint64_t free_from = lo;  // end of the previous sibling
        for (const std::size_t k : kids) {
            if (spans[k].start_ns < lo || spans[k].end_ns > hi) {
                return describe(k) + " is not inside " + outer();
            }
            if (spans[k].start_ns < free_from) {
                return describe(k) + " overlaps an earlier sibling in " + outer();
            }
            free_from = spans[k].end_ns;
        }
    }
    return "";
}

bool write_spans(const Tracer& tracer, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span\tname\tparent\tscenario\tstart_ns\tend_ns\titems\n");
    const std::vector<Span>& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f, "%zu\t%s\t%u\t%llu\t%llu\t%llu\t%llu\n", i + 1,
                     span_layer(s.name), s.parent,
                     static_cast<unsigned long long>(s.scenario),
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.items));
    }
    return std::fclose(f) == 0;
}

}  // namespace perfbench

// ndb_perfbench: one workload of the campaign benchmark of record.
//
//   ndb_perfbench --workload clean_sweep|long_stream|fixture_guided|fabric_sweep
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--base-seeds a,b,...] [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics for S seconds with tracing and
// telemetry off, checking every campaign's output.  --trace 1 runs the
// separate traced pass and prints the per-layer split.  Either way the last
// line of stdout is one JSON object {correct, attempted, failed, metrics};
// the exit code is 0 only when every output check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fabric.h"
#include "obs/metrics.h"
#include "perfbench.h"

namespace {

using namespace perfbench;
using ndb::core::CampaignConfig;
using ndb::core::CampaignEngine;
using ndb::core::CampaignReport;

// Set-up repetitions of the traced run; p4.compile_s is their median.
constexpr int kSetupReps = 9;
// Untraced and traced passes the tracing overhead is measured over.
constexpr int kOverheadReps = 3;

struct Options {
    Workload workload = Workload::clean_sweep;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::vector<std::uint64_t> base_seeds;
    std::string out_dir;
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

// Operations attempted and failed, with the first few failure reasons.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> reasons;

    void check(const std::string& failure) {
        ++attempted;
        if (!failure.empty()) fail(1, failure);
    }
    void fail(std::uint64_t n, const std::string& why) {
        failed += n;
        if (reasons.size() < 8) reasons.push_back(why);
    }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string format_number(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

// Peak resident memory in MiB: this process's high-water mark plus that of
// its largest reaped child (the fabric workers).  VmHWM, not
// RUSAGE_SELF's ru_maxrss, which keeps the pre-exec high-water mark of
// whatever process launched the benchmark.
double peak_rss_mb() {
    std::uint64_t self_kb = 0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f) != nullptr) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) self_kb = kb;
        }
        std::fclose(f);
    }
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(self_kb +
                               static_cast<std::uint64_t>(children.ru_maxrss)) /
           1024.0;
}

// Lowers this process's high-water mark to its current RSS, after handing
// freed heap back to the kernel, so that work done before the call does not
// count in peak_rss_mb().  Call it before the first child is forked.
void reset_peak_rss() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    bool ok = f != nullptr;
    if (ok) ok = std::fputs("5", f) >= 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok) throw std::runtime_error("cannot reset the peak RSS mark");
}

// --- one campaign of a workload -----------------------------------------------

struct CampaignResult {
    CampaignReport report;
    double scenarios_per_s = 0;
    double wall_s = 0;
};

ndb::core::FabricConfig fabric_config(const CampaignConfig& cfg) {
    ndb::core::FabricConfig fc;
    fc.campaign = cfg;
    fc.workers = cfg.threads;
    fc.shard_size = kFabricShardSize;
    return fc;
}

CampaignResult finish(CampaignReport report, double wall_s) {
    CampaignResult out;
    out.scenarios_per_s = ratio(static_cast<double>(report.scenarios), wall_s);
    out.report = std::move(report);
    out.wall_s = wall_s;
    return out;
}

// The sweep on in-process CampaignEngine threads.
CampaignResult run_in_process(const CampaignConfig& cfg) {
    CampaignEngine engine(cfg);
    CampaignReport report = engine.run();
    return finish(std::move(report), engine.stats().wall_seconds);
}

// Runs one campaign of `w` untraced; the rate excludes set-up.
CampaignResult run_campaign(Workload w, const CampaignConfig& cfg) {
    if (w == Workload::long_stream) {
        LongStreamRunner runner(cfg);
        CampaignReport report = runner.run();
        return finish(std::move(report), runner.wall_seconds());
    }
    if (w == Workload::fabric_sweep) {
        ndb::core::FabricEngine engine(fabric_config(cfg));
        CampaignReport report = engine.run();
        return finish(std::move(report), engine.stats().wall_seconds);
    }
    return run_in_process(cfg);
}

// The workload's cold start: catalogue compile, device pool, and for the
// fabric the worker fork -- timed around the constructors where the
// benchmark builds them, else as a one-scenario run.
double setup_seconds(Workload w, std::uint64_t base_seed) {
    const WorkloadParams p = workload_params(w);
    const CampaignConfig cfg = campaign_config(w, base_seed, 1, p.threads);
    const auto t0 = std::chrono::steady_clock::now();
    if (w == Workload::long_stream) {
        const LongStreamRunner runner(cfg);
    } else {
        run_campaign(w, cfg);
    }
    return seconds_since(t0);
}

// Scenarios run before the campaign's verdict is complete.  On the fixture
// it is the ordinal at which the last of the seven DUTs got its first
// fingerprint.  A uniform sweep's verdict (clean, or its deduplicated
// findings) exists only once its whole budget has run, so it scores its
// budget.
std::uint64_t scenarios_to_fingerprints(Workload w, const CampaignReport& r) {
    return w == Workload::fixture_guided ? fixture_budget_to_all(r) : r.scenarios;
}

std::string check_campaign(Workload w, const CampaignReport& r,
                           std::uint64_t budget) {
    switch (w) {
        case Workload::clean_sweep: return check_clean(r, budget, true);
        case Workload::long_stream: return check_long_stream(r, budget);
        case Workload::fixture_guided: return check_fixture(r);
        case Workload::fabric_sweep: break;  // checked against in-process
    }
    return "";
}

// --- untraced run ---------------------------------------------------------------

std::vector<Metric> run_untraced(const Options& opt, Tally& tally) {
    const Workload w = opt.workload;
    const WorkloadParams p = workload_params(w);
    const std::vector<std::uint64_t>& seeds = opt.base_seeds;

    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<double> to_fingerprints;
    // fabric_sweep: the in-process report of each base seed, computed once
    // (it is a pure function of the config) and compared byte for byte.
    // They are all computed before measuring starts, and the peak-RSS mark
    // is reset after them, so the checker's own threads and device pools
    // count in neither the rate nor peak_rss_mb.
    std::map<std::uint64_t, std::string> in_process_json;
    if (w == Workload::fabric_sweep) {
        for (const std::uint64_t seed : seeds) {
            in_process_json[seed] =
                run_in_process(campaign_config(w, seed, p.budget, p.threads))
                    .report.to_json();
        }
        reset_peak_rss();
    }
    const auto t0 = std::chrono::steady_clock::now();
    // Every base seed runs at least once; then the list repeats until the
    // measuring time is up.
    for (std::size_t i = 0; i < seeds.size() || seconds_since(t0) < opt.seconds;
         ++i) {
        const std::uint64_t seed = seeds[i % seeds.size()];
        const CampaignConfig cfg = campaign_config(w, seed, p.budget, p.threads);
        tally.attempted += p.budget;
        try {
            // One cold start per campaign, so set-up samples span the whole
            // measuring time like the campaigns do.
            setups.push_back(setup_seconds(w, seed));
            const CampaignResult res = run_campaign(w, cfg);
            std::string failure = check_campaign(w, res.report, p.budget);
            if (w == Workload::fabric_sweep) {
                failure = check_fabric(res.report, in_process_json.at(seed));
                const std::uint64_t restarts = res.report.fabric.worker_restarts;
                tally.attempted += restarts;
                if (restarts > 0) tally.fail(restarts, "fabric worker respawned");
            }
            tally.check(failure);
            rates.push_back(res.scenarios_per_s);
            std::printf("# campaign %zu seed %llu: %.1f scenarios/s\n", i,
                        static_cast<unsigned long long>(seed),
                        res.scenarios_per_s);
            if (i < seeds.size()) {
                to_fingerprints.push_back(static_cast<double>(
                    scenarios_to_fingerprints(w, res.report)));
            }
        } catch (const std::exception& e) {
            tally.fail(p.budget, std::string("campaign threw: ") + e.what());
        }
    }
    std::printf("# %zu campaigns of %llu scenarios, %zu base seeds\n",
                rates.size(), static_cast<unsigned long long>(p.budget),
                seeds.size());
    return {
        {"scenarios_per_s", median(rates), "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"scenarios_to_all_fingerprints", median(to_fingerprints), "count"},
    };
}

// --- traced run -----------------------------------------------------------------

// Untraced wall time of the single-threaded pass the trace replays, timed
// the way the traced pass is: around CampaignEngine::run() on the guided
// fixture, else over the scenarios only.
double untraced_pass_seconds(Workload w, const CampaignConfig& cfg,
                             std::string& json) {
    if (w == Workload::fixture_guided) {
        CampaignEngine engine(cfg);
        const std::uint64_t t0 = now_ns();
        json = engine.run().to_json();
        return static_cast<double>(now_ns() - t0) * 1e-9;
    }
    const CampaignResult res = w == Workload::fabric_sweep
                                   ? run_in_process(cfg)
                                   : run_campaign(w, cfg);
    json = res.report.to_json();
    return res.wall_s;
}

std::vector<Metric> run_traced(const Options& opt, Tally& tally) {
    const Workload w = opt.workload;
    const WorkloadParams p = workload_params(w);
    const std::uint64_t seed = opt.base_seeds.front();
    const CampaignConfig cfg = campaign_config(w, seed, p.traced_budget, 1);

    std::vector<double> compiles;
    for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const ndb::core::SpecGenerator gen(cfg.programs);
        compiles.push_back(seconds_since(t0));
    }

    // Untraced and traced passes alternate, so drift in machine speed hits
    // both sides of the overhead alike.  The split comes from the last
    // traced pass.
    const CampaignConfig traced = traced_config(cfg);
    ndb::obs::Metrics& metrics = ndb::obs::Metrics::instance();
    std::string untraced_json;
    std::vector<double> untraced;
    std::vector<double> traced_walls;
    Tracer tracer;
    CampaignReport report;
    ndb::obs::MetricsSnapshot obs;
    std::uint64_t wall_start = 0;
    std::uint64_t wall_end = 0;
    for (int i = 0; i < kOverheadReps; ++i) {
        untraced.push_back(untraced_pass_seconds(w, cfg, untraced_json));

        // The traced pass, with the observe-only telemetry harvested
        // alongside.
        tracer = Tracer{};
        tracer.guided = w == Workload::fixture_guided;
        wall_start = 0;
        wall_end = 0;
        metrics.reset();
        metrics.set_enabled(true);
        if (w == Workload::fixture_guided) {
            // The wall is the whole of run(), so the engine's catalogue
            // compile and pool teardown land in the residual.
            CampaignEngine engine(traced);
            set_active_tracer(&tracer);
            wall_start = now_ns();
            report = engine.run();
            wall_end = now_ns();
            finish_guided_trace(wall_end);
        } else {
            // traced_uniform_run builds its generator and pool before the
            // first scenario and tears them down after the last; the wall
            // spans the scenarios.
            set_active_tracer(&tracer);
            report = traced_uniform_run(traced, w == Workload::long_stream, tracer);
            for (const Span& s : tracer.spans()) {
                if (wall_start == 0) wall_start = s.start_ns;
                wall_end = std::max(wall_end, s.end_ns);
            }
        }
        set_active_tracer(nullptr);
        metrics.set_enabled(false);
        obs = metrics.snapshot();
        traced_walls.push_back(static_cast<double>(wall_end - wall_start) * 1e-9);
        tally.attempted += report.scenarios;

        // The traced report must equal the untraced one byte for byte.
        tally.check(report.to_json() == untraced_json
                        ? ""
                        : "traced report differs from the untraced report");
    }

    const LayerSplit split = split_layers(tracer, wall_start, wall_end);
    const auto spans = [&](const char* layer) { return split.spans.at(layer); };
    const auto items = [&](const char* layer) { return split.items.at(layer); };
    const auto loads = [&](const char* phase) {
        return split.loads_by_phase.at(phase);
    };
    const auto injects = [&](const char* phase) {
        return split.injects_by_phase.at(phase);
    };
    const std::uint64_t devices = 1 + report.backends.size();
    const std::uint64_t findings = report.findings_total;
    const std::uint64_t minimize_loads = loads("core.minimize");
    const std::uint64_t worker_injects = injects("core.detect") +
                                         injects("core.minimize") +
                                         injects("core.localize");

    // Reconciliation: span counts against the report's totals, exactly.
    const auto reconcile = [&](const char* what, std::uint64_t got,
                               std::uint64_t want) {
        tally.check(got == want ? ""
                                : std::string("trace reconciliation: ") + what +
                                      " = " + std::to_string(got) + ", report " +
                                      std::to_string(want));
    };
    reconcile("inject spans", worker_injects, report.packets_injected);
    reconcile("scenario spans", spans("core.scenario"), report.scenarios);
    reconcile("detect loads", loads("core.detect"), report.scenarios * devices);
    reconcile("minimize runs", spans("core.minimize"), findings);
    reconcile("localize runs", spans("core.localize"), findings);
    reconcile("localize warm-up loads", loads("core.localize"), 2 * findings);
    // Replays run in reference + DUT pairs; the uniform runner also counts
    // the pairs itself.
    if (tracer.guided) {
        reconcile("odd minimize loads", minimize_loads % 2, 0);
    } else {
        reconcile("minimize loads", minimize_loads, 2 * items("core.minimize"));
    }
    // A well-nested trace is what makes the self times and the residual
    // non-negative and lets them account for the traced wall.
    const std::string nesting = check_trace(tracer.spans(), wall_start, wall_end);
    tally.check(nesting.empty() ? "" : "trace nesting: " + nesting);

    // Device-call latency distributions from the spans themselves.
    std::vector<double> load_us;
    double inject_ns = 0;
    double drain_ns = 0;
    for (const Span& s : tracer.spans()) {
        const auto dur = static_cast<double>(s.end_ns - s.start_ns);
        if (s.name == SpanName::load) load_us.push_back(dur * 1e-3);
        if (s.name == SpanName::inject) inject_ns += dur;
        if (s.name == SpanName::drain) drain_ns += dur;
    }
    const double traced_wall = median(traced_walls);
    const double untraced_wall = median(untraced);

    if (!opt.out_dir.empty()) {
        const std::string path =
            opt.out_dir + "/trace_" + workload_name(w) + ".tsv";
        if (write_spans(tracer, path)) {
            std::printf("# %zu spans written to %s\n", tracer.spans().size(),
                        path.c_str());
        }
    }

    // Fabric only: the multi-process sweep against the in-process one.
    double fabric_overhead = 0;
    ndb::core::FabricAccounting fabric;
    if (w == Workload::fabric_sweep) {
        const CampaignConfig two =
            campaign_config(w, seed, p.traced_budget, p.threads);
        std::vector<double> fabric_wall;
        std::vector<double> in_process_wall;
        for (int i = 0; i < kOverheadReps; ++i) {
            const CampaignResult f = run_campaign(Workload::fabric_sweep, two);
            const CampaignResult c = run_in_process(two);
            tally.check(check_fabric(f.report, c.report.to_json()));
            fabric_wall.push_back(f.wall_s);
            in_process_wall.push_back(c.wall_s);
            fabric = f.report.fabric;
        }
        fabric_overhead = ratio(median(fabric_wall), median(in_process_wall));
    }

    const bool compiled = cfg.engine == ndb::dataplane::Engine::compiled;
    const auto hist_p50 = [&](int stage) {
        const auto h = static_cast<std::size_t>(ndb::obs::pipeline_hist(stage, compiled));
        return static_cast<double>(obs.hists[h].percentile(50));
    };
    const auto counter = [&](ndb::obs::Counter c) {
        return static_cast<double>(obs.counters[static_cast<std::size_t>(c)]);
    };
    const double concolic_attempted = static_cast<double>(
        report.concolic_solved + report.concolic_unsat + report.concolic_unknown +
        report.concolic_no_path);
    const auto self = [&](const char* layer) { return split.self_s.at(layer); };

    std::vector<Metric> m = {
        {"p4.compile_s", median(compiles), "s"},
        {"core.scenario.self_s", self("core.scenario"), "s"},
        {"core.specgen.self_s", self("core.specgen"), "s"},
        {"core.detect.self_s", self("core.detect"), "s"},
        {"core.compare.self_s", self("core.compare"), "s"},
        {"core.minimize.runs", static_cast<double>(spans("core.minimize")), "count"},
        {"core.minimize.replays", static_cast<double>(minimize_loads / 2), "count"},
        {"core.minimize.packets", static_cast<double>(injects("core.minimize")),
         "count"},
        {"core.minimize.self_s", self("core.minimize"), "s"},
        {"core.localize.runs", static_cast<double>(spans("core.localize")), "count"},
        {"core.localize.probes", static_cast<double>(items("target.taps")), "count"},
        {"core.localize.packets", static_cast<double>(injects("core.localize")),
         "count"},
        {"core.localize.self_s", self("core.localize"), "s"},
        {"core.triage.findings", static_cast<double>(findings), "count"},
        {"core.triage_useful_ratio",
         ratio(static_cast<double>(report.divergences.size()),
               static_cast<double>(findings)),
         "ratio"},
        {"core.merge.self_s", self("core.merge"), "s"},
        {"control.wire.self_s", self("control.wire"), "s"},
        {"control.wire.frames", static_cast<double>(report.mgmt.frames_sent), "count"},
        {"control.wire.retries", static_cast<double>(report.mgmt.retries), "count"},
        {"control.wire.timeouts", static_cast<double>(report.mgmt.timeouts), "count"},
        {"control.apply.ops", static_cast<double>(items("control.apply")), "count"},
        {"control.apply.self_s", self("control.apply"), "s"},
        {"target.load.calls", static_cast<double>(spans("target.load")), "count"},
        {"target.load.self_s", self("target.load"), "s"},
        {"target.load.us_p50", percentile(load_us, 50), "us"},
        {"target.load.us_p99", percentile(load_us, 99), "us"},
        {"target.inject.packets", static_cast<double>(spans("target.inject")), "count"},
        {"target.inject.self_s", self("target.inject"), "s"},
        {"target.inject.ns_per_pkt",
         ratio(inject_ns, static_cast<double>(spans("target.inject"))), "ns"},
        {"target.drain.self_s", self("target.drain"), "s"},
        {"target.drain.ns_per_pkt",
         ratio(drain_ns, static_cast<double>(items("target.drain"))), "ns"},
        {"target.digest.self_s", self("target.digest"), "s"},
        {"target.snapshot.self_s", self("target.snapshot"), "s"},
        {"target.taps.self_s", self("target.taps"), "s"},
        {"dataplane.parse_ns_p50", hist_p50(0), "ns"},
        {"dataplane.match_action_ns_p50", hist_p50(1), "ns"},
        {"dataplane.deparse_ns_p50", hist_p50(2), "ns"},
        {"dataplane.lookups_exact", counter(ndb::obs::Counter::lookups_exact), "count"},
        {"dataplane.lookups_lpm", counter(ndb::obs::Counter::lookups_lpm), "count"},
        {"dataplane.lookups_ternary", counter(ndb::obs::Counter::lookups_ternary),
         "count"},
        {"core.guided.rounds", static_cast<double>(report.coverage_series.size()),
         "count"},
        {"coverage.edges", static_cast<double>(report.coverage_edges), "count"},
        {"core.mutate.mutated_share",
         ratio(static_cast<double>(report.scenarios_mutated),
               static_cast<double>(report.scenarios)),
         "ratio"},
        {"verify.concolic.attempted", concolic_attempted, "count"},
        {"verify.concolic.solved", static_cast<double>(report.concolic_solved), "count"},
        {"verify.concolic.injected", static_cast<double>(report.concolic_injected),
         "count"},
        {"verify.concolic.useful_ratio",
         ratio(static_cast<double>(report.concolic_injected), concolic_attempted),
         "ratio"},
        {"verify.relight.self_s", self("verify.relight"), "s"},
        {"core.fabric.link_frames", static_cast<double>(fabric.link_frames), "count"},
        {"core.fabric.jobs_resent", static_cast<double>(fabric.jobs_resent), "count"},
        {"core.fabric.worker_restarts", static_cast<double>(fabric.worker_restarts),
         "count"},
        {"core.fabric.overhead_ratio", fabric_overhead, "ratio"},
        {"core.scenario.us_p50_clean", percentile(split.scenario_us_clean, 50), "us"},
        {"core.scenario.us_p99_clean", percentile(split.scenario_us_clean, 99), "us"},
        {"core.scenario.us_p50_divergent",
         percentile(split.scenario_us_divergent, 50), "us"},
        {"core.scenario.us_p99_divergent",
         percentile(split.scenario_us_divergent, 99), "us"},
        {"trace.residual_s", split.residual_s, "s"},
        {"trace.wall_s", split.wall_s, "s"},
        {"obs.trace_overhead_pct",
         100.0 * ratio(traced_wall - untraced_wall, untraced_wall), "%"},
    };
    return m;
}

// --- command line ---------------------------------------------------------------

bool parse_u64(const char* s, std::uint64_t& out) {
    const char* end = s + std::char_traits<char>::length(s);
    const auto res = std::from_chars(s, end, out);
    return res.ec == std::errc() && res.ptr == end && end != s;
}

int usage(const std::string& why) {
    std::fprintf(stderr,
                 "ndb_perfbench: %s\n"
                 "usage: ndb_perfbench --workload "
                 "clean_sweep|long_stream|fixture_guided|fabric_sweep\n"
                 "       [--seed N] [--seconds S] [--trace 0|1] "
                 "[--base-seeds a,b,...] [--out-dir DIR]\n",
                 why.c_str());
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    bool have_workload = false;
    std::string seed_list;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) return usage("missing value after " + arg);
        const char* val = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            const auto w = workload_from_name(val);
            if (!w) return usage(std::string("unknown workload '") + val + "'");
            opt.workload = *w;
            have_workload = true;
        } else if (arg == "--seed") {
            if (!parse_u64(val, opt.seed)) return usage("bad --seed");
        } else if (arg == "--seconds") {
            if (!parse_u64(val, n) || n == 0 || n > 3600) {
                return usage("bad --seconds");
            }
            opt.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (!parse_u64(val, n) || n > 1) return usage("bad --trace");
            opt.trace = n == 1;
        } else if (arg == "--base-seeds") {
            seed_list = val;
        } else if (arg == "--out-dir") {
            opt.out_dir = val;
        } else {
            return usage("unknown option " + arg);
        }
    }
    if (!have_workload) return usage("--workload is required");
    if (seed_list.empty()) {
        opt.base_seeds =
            derive_seeds(opt.seed, workload_params(opt.workload).base_seeds);
    } else {
        std::string error;
        auto parsed = parse_seed_list(seed_list, error);
        if (!parsed) return usage("bad --base-seeds: " + error);
        opt.base_seeds = std::move(*parsed);
    }

    std::printf("# workload %s, seed %llu, %s run\n", workload_name(opt.workload),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced");
    Tally tally;
    std::vector<Metric> metrics;
    try {
        metrics = opt.trace ? run_traced(opt, tally) : run_untraced(opt, tally);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ndb_perfbench: %s\n", e.what());
        return 1;
    }

    for (const Metric& m : metrics) {
        std::printf("%-36s %16s %s\n", m.name.c_str(), format_number(m.value).c_str(),
                    m.unit.c_str());
    }
    std::printf("%-36s %16s %s\n", "failed_share",
                format_number(ratio(static_cast<double>(tally.failed),
                                    static_cast<double>(tally.attempted)))
                    .c_str(),
                "ratio");
    for (const std::string& why : tally.reasons) {
        std::printf("# FAILED: %s\n", why.c_str());
    }
    const bool correct = tally.failed == 0;
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                format_number(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

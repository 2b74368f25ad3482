// The campaign benchmark of record.
//
// Four closed-loop workloads drive the framework through its public entry
// points (CampaignEngine, FabricEngine, execute_scenario + ReportBuilder,
// SpecGenerator, target::Device, RuntimeClient).  An untraced run measures
// the end-to-end metrics and checks every campaign's output; a separate
// traced run records spans from this directory's own files -- a timing
// proxy registered as a target backend, and a runner that makes the same
// public calls as execute_scenario() phase by phase -- and splits the wall
// time into per-layer self times that reconcile with the report totals.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"

namespace perfbench {

// --- workloads ----------------------------------------------------------------

enum class Workload { clean_sweep, long_stream, fixture_guided, fabric_sweep };

std::optional<Workload> workload_from_name(const std::string& name);
const char* workload_name(Workload w);

// Per-workload fixed parameters.
struct WorkloadParams {
    std::uint64_t budget = 0;        // scenarios per untraced campaign
    int threads = 1;                 // campaign threads or fabric workers
    std::size_t base_seeds = 16;     // per run when --base-seeds is not given
    std::uint64_t traced_budget = 0; // scenarios of the traced pass
};
WorkloadParams workload_params(Workload w);

// Packets per scenario after long_stream's runner stretches the stream.
inline constexpr std::uint64_t kLongStreamPackets = 1024;
// Scenarios per fabric job frame.  With the engine's default of 4, the
// sweep's wall time is mostly the parent's per-shard polling latency, which
// on a shared host swings far more than the scenarios' own work; 64 keeps
// the link, framing and worker machinery in play while the measured time
// stays dominated by the sweep itself.
inline constexpr std::uint64_t kFabricShardSize = 64;
// Delay-only management fault plan of the clean workloads: frames are held
// back a few virtual ticks (well inside the client's 16-tick timeout), none
// are lost.
inline constexpr const char* kDelayOnlyPlan = "seed=11,delay=0.5,delay_ticks=3";

// The campaign config of `w` for one base seed.  Every workload names its
// DUTs explicitly, so backends registered by the traced run never join a
// sweep by default.
ndb::core::CampaignConfig campaign_config(Workload w, std::uint64_t base_seed,
                                          std::uint64_t scenarios, int threads);

// --- base seeds ---------------------------------------------------------------

// Parses a comma-separated list of base seeds: decimal integers in
// [1, 2^63), no signs, blanks, empty items or duplicates, at most 64 items.
// Returns nullopt and sets `error` on junk.
std::optional<std::vector<std::uint64_t>> parse_seed_list(const std::string& text,
                                                          std::string& error);

// `count` distinct base seeds drawn from util::Rng seeded with `seed`.
std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t count);

// --- output checks ------------------------------------------------------------

// Each returns "" when the report passes, else the reason it fails.
std::string check_clean(const ndb::core::CampaignReport& report,
                        std::uint64_t budget, bool expect_mgmt);
std::string check_long_stream(const ndb::core::CampaignReport& report,
                              std::uint64_t budget);
std::string check_fixture(const ndb::core::CampaignReport& report);
// `in_process_json`: CampaignEngine's report JSON for the same config.
std::string check_fabric(const ndb::core::CampaignReport& fabric,
                         const std::string& in_process_json);

// The report's JSON with the timing-dependent fabric block removed.
std::string json_without_fabric(ndb::core::CampaignReport report);

// Scenario ordinal at which the last of the seven fixture DUTs got its
// first fingerprint; 0 when one was never found.
std::uint64_t fixture_budget_to_all(const ndb::core::CampaignReport& report);

// --- long_stream runner -------------------------------------------------------

// A uniform sweep whose scenarios carry kLongStreamPackets packets each,
// run through execute_scenario() on config.threads device pools (one per
// thread, built by the constructor) and folded by ReportBuilder in
// scenario order.
class LongStreamRunner {
public:
    explicit LongStreamRunner(const ndb::core::CampaignConfig& config);
    ndb::core::CampaignReport run();
    double wall_seconds() const { return wall_seconds_; }

private:
    ndb::core::CampaignConfig config_;
    std::vector<ndb::core::BackendSpec> duts_;
    ndb::core::SpecGenerator gen_;
    std::vector<std::unique_ptr<ndb::core::WorkerContext>> pools_;
    double wall_seconds_ = 0;
};

// The scenario `seed` as long_stream runs it.
ndb::core::Scenario long_stream_scenario(const ndb::core::SpecGenerator& gen,
                                         std::uint64_t seed);

// --- tracing ------------------------------------------------------------------

// Span names; each is one row of the per-layer split.
enum class SpanName : std::uint8_t {
    scenario,     // core.scenario: glue between phases
    specgen,      // core.specgen: SpecGenerator::make + stream build
    detect,       // core.detect: detection runs
    compare,      // core.compare: diff_runs + fingerprint
    minimize,     // core.minimize
    localize,     // core.localize
    merge,        // core.merge: ReportBuilder::fold
    wire,         // control.wire: configuration delivery around apply
    apply,        // control.apply: the device runtime applying ops
    load,         // target.load
    inject,       // target.inject
    drain,        // target.drain
    digest,       // target.digest: digest ring on/off + take
    snapshot,     // target.snapshot
    taps,         // target.taps: tap ring arm/clear (localizer probes)
    relight,      // verify.relight: concolic relight runs on the oracle
    count_,
};
const char* span_layer(SpanName n);

struct Span {
    SpanName name = SpanName::scenario;
    bool divergent = false;     // scenario spans: had a finding
    std::uint32_t parent = 0;   // index + 1 into the span list; 0 = root
    std::uint64_t scenario = 0; // shared by every span of one scenario
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t items = 0;    // ops applied / packets drained / probes
};

std::uint64_t now_ns();

// In-memory span recorder for one thread.  Spans nest through an explicit
// stack; the timing proxy parents its device-call spans on whatever phase
// is open.  Nothing is written until the benchmark ends.
class Tracer {
public:
    std::uint32_t open(SpanName name) { return open_at(name, now_ns()); }
    std::uint32_t open_at(SpanName name, std::uint64_t start_ns);
    // Closes the innermost open span, which must be `handle` (as returned
    // by open()).
    void close(std::uint32_t handle) { close_at(handle, now_ns()); }
    void close_at(std::uint32_t handle, std::uint64_t end_ns);
    Span& at(std::uint32_t handle) { return spans_[handle - 1]; }
    // Spans opened from now on belong to scenario `id` (0 = none).
    void set_scenario(std::uint64_t id) { scenario_ = id; }
    const std::vector<Span>& spans() const { return spans_; }

    // Guided mode: CampaignEngine owns the phase sequence, so the proxy
    // infers phase spans from the device calls it sees (see proxy.cpp).
    bool guided = false;

private:
    std::uint32_t top() const { return stack_.empty() ? 0 : stack_.back(); }

    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
    std::uint64_t scenario_ = 0;
};

// The tracer the proxy records into; nullptr = proxies only delegate.
void set_active_tracer(Tracer* tracer);

// Registers a backend that wraps `inner` in the timing proxy, in the role
// of the golden reference or of a DUT, and returns its registry name.
// Idempotent.  The proxy delegates every Device call -- and the coverage
// salt -- to the real device, so reports are byte-identical with it.
std::string register_traced_backend(const std::string& inner, bool dut);

// Guided mode: closes the phase spans still open when the campaign ends --
// a relight still running at `end_ns` -- and clears the proxy's phase state.
void finish_guided_trace(std::uint64_t end_ns);

// The campaign config with every backend swapped for its traced proxy.
ndb::core::CampaignConfig traced_config(ndb::core::CampaignConfig config);

// Uniform sweep runner making the same public calls as execute_scenario(),
// with phase spans: generate, detect, compare, minimize, localize, merge.
// `long_stream` builds scenarios with long_stream_scenario().  The report
// must equal CampaignEngine's (or LongStreamRunner's) for the same config.
ndb::core::CampaignReport traced_uniform_run(const ndb::core::CampaignConfig& config,
                                             bool long_stream, Tracer& tracer);

// Per-layer accounting over a finished trace.
struct LayerSplit {
    std::map<std::string, double> self_s;           // layer -> seconds
    std::map<std::string, std::uint64_t> spans;     // layer -> span count
    std::map<std::string, std::uint64_t> items;     // layer -> Σ items
    double residual_s = 0;  // wall time outside every root span
    double wall_s = 0;
    // Device calls by the phase they ran in (detect / minimize / localize /
    // relight), for reconciliation against the report.
    std::map<std::string, std::uint64_t> loads_by_phase;
    std::map<std::string, std::uint64_t> injects_by_phase;
    std::vector<double> scenario_us_clean;
    std::vector<double> scenario_us_divergent;
};
LayerSplit split_layers(const Tracer& tracer, std::uint64_t wall_start_ns,
                        std::uint64_t wall_end_ns);

// Checks that a finished trace is well nested: every span ends after it
// starts and lies inside its parent, siblings never overlap, and the roots
// lie inside [wall_start_ns, wall_end_ns].  Only then is every self time and
// the residual non-negative, and do the self times plus the residual account
// for the wall.  Returns "" when the trace passes, else the first violation.
std::string check_trace(const std::vector<Span>& spans,
                        std::uint64_t wall_start_ns, std::uint64_t wall_end_ns);

// Writes one line per span: index, name, parent, scenario, start, end, items.
bool write_spans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench

// Workload definitions, base-seed handling and output checks.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "perfbench.h"
#include "quirk_fixture.h"
#include "util/random.h"

namespace perfbench {

using ndb::core::BackendSpec;
using ndb::core::CampaignConfig;
using ndb::core::CampaignReport;

std::optional<Workload> workload_from_name(const std::string& name) {
    for (const Workload w : {Workload::clean_sweep, Workload::long_stream,
                             Workload::fixture_guided, Workload::fabric_sweep}) {
        if (name == workload_name(w)) return w;
    }
    return std::nullopt;
}

const char* workload_name(Workload w) {
    switch (w) {
        case Workload::clean_sweep: return "clean_sweep";
        case Workload::long_stream: return "long_stream";
        case Workload::fixture_guided: return "fixture_guided";
        case Workload::fabric_sweep: return "fabric_sweep";
    }
    return "?";
}

WorkloadParams workload_params(Workload w) {
    switch (w) {
        case Workload::clean_sweep: return {8192, 2, 16, 8192};
        // About a second per campaign; the traced pass keeps its span list
        // (one span per packet per device) to a few hundred thousand.
        case Workload::long_stream: return {512, 2, 16, 64};
        case Workload::fixture_guided: return {400, 2, 16, 400};
        // Few seeds: each one's in-process reference report is computed once.
        case Workload::fabric_sweep: return {4096, 2, 4, 4096};
    }
    return {};
}

CampaignConfig campaign_config(Workload w, std::uint64_t base_seed,
                               std::uint64_t scenarios, int threads) {
    CampaignConfig cfg;
    cfg.base_seed = base_seed;
    cfg.scenarios = scenarios;
    cfg.threads = threads;
    cfg.engine = ndb::dataplane::Engine::compiled;
    // The quirk-free DUT: the reference backend under a DUT label.
    const BackendSpec clean_dut{"reference", std::nullopt, "clean_dut"};
    switch (w) {
        case Workload::clean_sweep:
            cfg.duts = {clean_dut};
            cfg.mgmt_fault_plan = kDelayOnlyPlan;
            break;
        case Workload::long_stream:
            cfg.duts = {clean_dut};
            break;
        case Workload::fixture_guided: {
            ndb_test::FlagFixture fx = ndb_test::seven_flag_fixture();
            fx.engine = cfg.engine;
            ndb_test::apply_fixture(fx, cfg);
            cfg.mutate = true;
            cfg.concolic = true;
            break;
        }
        case Workload::fabric_sweep:
            cfg.duts = {BackendSpec{"sdnet", std::nullopt, "sdnet"}};
            break;
    }
    return cfg;
}

// --- base seeds ---------------------------------------------------------------

std::optional<std::vector<std::uint64_t>> parse_seed_list(const std::string& text,
                                                          std::string& error) {
    constexpr std::size_t kMaxSeeds = 64;
    constexpr std::uint64_t kLimit = 1ull << 63;
    std::vector<std::uint64_t> seeds;
    std::set<std::uint64_t> seen;
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = text.find(',', pos);
        const std::string item =
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (item.empty()) {
            error = "empty seed in list";
            return std::nullopt;
        }
        std::uint64_t v = 0;
        for (const char c : item) {
            if (c < '0' || c > '9') {
                error = "seed '" + item + "' is not a decimal integer";
                return std::nullopt;
            }
            const auto digit = static_cast<std::uint64_t>(c - '0');
            if (v > (kLimit - 1 - digit) / 10) {
                error = "seed '" + item + "' is out of range";
                return std::nullopt;
            }
            v = v * 10 + digit;
        }
        if (v == 0) {
            error = "seed 0 is not allowed";
            return std::nullopt;
        }
        if (!seen.insert(v).second) {
            error = "seed " + item + " appears twice";
            return std::nullopt;
        }
        seeds.push_back(v);
        if (seeds.size() > kMaxSeeds) {
            error = "more than 64 seeds";
            return std::nullopt;
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return seeds;
}

std::vector<std::uint64_t> derive_seeds(std::uint64_t seed, std::size_t count) {
    std::vector<std::uint64_t> out;
    std::set<std::uint64_t> seen;
    ndb::util::Rng rng(seed);
    while (out.size() < count) {
        // 40-bit seeds leave every uniform sweep's [base, base + budget)
        // range far from overflow.
        const std::uint64_t s = 1 + (rng.next_u64() >> 24);
        if (seen.insert(s).second) out.push_back(s);
    }
    return out;
}

// --- output checks ------------------------------------------------------------

namespace {

std::string count_mismatch(const char* what, std::uint64_t got,
                           std::uint64_t want) {
    return std::string(what) + " = " + std::to_string(got) + ", expected " +
           std::to_string(want);
}

}  // namespace

std::string check_clean(const CampaignReport& report, std::uint64_t budget,
                        bool expect_mgmt) {
    if (report.scenarios != budget) {
        return count_mismatch("scenarios", report.scenarios, budget);
    }
    if (report.findings_total != 0 || !report.divergences.empty()) {
        return count_mismatch("findings", report.findings_total, 0);
    }
    if (expect_mgmt) {
        if (!report.mgmt_enabled || report.mgmt.requests == 0) {
            return "DUT configuration did not ride the management wire";
        }
        if (report.mgmt.timeouts != 0) {
            return count_mismatch("wire timeouts", report.mgmt.timeouts, 0);
        }
    }
    return "";
}

std::string check_long_stream(const CampaignReport& report, std::uint64_t budget) {
    if (const std::string e = check_clean(report, budget, false); !e.empty()) {
        return e;
    }
    // Two devices (reference + clean DUT), no triage replays.
    const std::uint64_t want = budget * kLongStreamPackets * 2;
    if (report.packets_injected != want) {
        return count_mismatch("packets_injected", report.packets_injected, want);
    }
    return "";
}

std::uint64_t fixture_budget_to_all(const CampaignReport& report) {
    return ndb_test::budget_to_all_seven(report, ndb_test::seven_flag_fixture());
}

std::string check_fixture(const CampaignReport& report) {
    if (fixture_budget_to_all(report) == 0) {
        return "not every fixture DUT was fingerprinted (seed " +
               std::to_string(report.base_seed) + ")";
    }
    return "";
}

std::string json_without_fabric(CampaignReport report) {
    report.fabric_enabled = false;
    report.fabric = {};
    return report.to_json();
}

std::string check_fabric(const CampaignReport& fabric,
                         const std::string& in_process_json) {
    if (!fabric.fabric_enabled) return "fabric report has no fabric block";
    if (json_without_fabric(fabric) != in_process_json) {
        return "fabric report differs from the in-process report (seed " +
               std::to_string(fabric.base_seed) + ")";
    }
    return "";
}

// --- long_stream runner -------------------------------------------------------

ndb::core::Scenario long_stream_scenario(const ndb::core::SpecGenerator& gen,
                                         std::uint64_t seed) {
    ndb::core::Scenario sc = gen.make(seed);
    sc.spec.count = kLongStreamPackets;
    return sc;
}

LongStreamRunner::LongStreamRunner(const CampaignConfig& config)
    : config_(config),
      duts_(ndb::core::resolve_duts(config)),
      gen_(config.programs) {
    for (int t = 0; t < std::max(1, config.threads); ++t) {
        pools_.push_back(std::make_unique<ndb::core::WorkerContext>(
            config.reference_backend, duts_, config.engine));
    }
}

CampaignReport LongStreamRunner::run() {
    ndb::core::ExecOptions exec;
    exec.batch_size = config_.batch_size;
    exec.minimize = config_.minimize;
    exec.localize = config_.localize;

    CampaignReport report;
    report.base_seed = config_.base_seed;
    report.scenarios = config_.scenarios;
    report.programs = gen_.programs();
    report.engine = ndb::dataplane::engine_name(config_.engine);
    for (const auto& d : duts_) report.backends.push_back(d.label);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ndb::core::ScenarioOutcome> outcomes(config_.scenarios);
    std::atomic<std::uint64_t> next{0};
    std::exception_ptr error;
    std::mutex error_mu;  // guards error
    const auto work = [&](ndb::core::WorkerContext& pool) {
        try {
            for (std::uint64_t i = next++; i < config_.scenarios; i = next++) {
                const ndb::core::Scenario sc =
                    long_stream_scenario(gen_, config_.base_seed + i);
                ndb::core::execute_scenario(pool, sc, duts_, exec, outcomes[i],
                                            std::string());
            }
        } catch (...) {
            const std::lock_guard<std::mutex> lock(error_mu);
            if (!error) error = std::current_exception();
            next = config_.scenarios;
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 1; t < pools_.size(); ++t) {
        threads.emplace_back(work, std::ref(*pools_[t]));
    }
    work(*pools_[0]);
    for (auto& t : threads) t.join();
    if (error) std::rethrow_exception(error);

    ndb::core::ReportBuilder builder(report);
    for (auto& outcome : outcomes) builder.fold(outcome);
    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    return report;
}

}  // namespace perfbench

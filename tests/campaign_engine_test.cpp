// CampaignEngine contract tests: determinism under sharding, dedup,
// minimization, registry-driven backend sweeps, and errors surfacing from
// the worker pool.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/campaign.h"
#include "core/specgen.h"
#include "core/testspec.h"
#include "forwarding_device.h"
#include "target/device.h"
#include "util/random.h"

namespace {

using namespace ndb;

core::CampaignConfig default_config(std::uint64_t scenarios, int threads) {
    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = scenarios;
    config.threads = threads;
    // Pin the DUT list: other tests may grow the process-global registry.
    config.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
    return config;
}

TEST(CampaignEngine, SameSeedSameReportRegardlessOfThreadCount) {
    // The whole point of deterministic sharding: a campaign is a pure
    // function of its config.  Byte-identical JSON, 1 vs 4 workers.
    core::CampaignEngine one(default_config(48, 1));
    core::CampaignEngine four(default_config(48, 4));
    const core::CampaignReport r1 = one.run();
    const core::CampaignReport r4 = four.run();
    EXPECT_GT(r1.packets_injected, 0u);
    EXPECT_FALSE(r1.divergences.empty());
    EXPECT_EQ(r1.to_json(), r4.to_json());
}

TEST(CampaignEngine, DedupCollapsesRepeatedFindings) {
    // The sdnet catalogue trips on many seeds, but the (backend, signature,
    // stage) fingerprint folds them into a handful of records.
    core::CampaignEngine engine(default_config(64, 2));
    const core::CampaignReport report = engine.run();
    ASSERT_FALSE(report.divergences.empty());
    EXPECT_GT(report.findings_total, report.divergences.size());
    EXPECT_GT(report.dedup_ratio(), 1.0);
    std::uint64_t duplicates = 0;
    for (const auto& d : report.divergences) duplicates += d.duplicates;
    EXPECT_EQ(report.findings_total,
              report.divergences.size() + duplicates);
}

TEST(CampaignEngine, MinimizedSeedStillReproduces) {
    core::CampaignEngine engine(default_config(48, 2));
    const core::CampaignReport report = engine.run();
    ASSERT_FALSE(report.divergences.empty());
    for (const auto& d : report.divergences) {
        EXPECT_TRUE(d.minimized_reproduces) << d.fingerprint;
        EXPECT_GE(d.minimized_count, 1u) << d.fingerprint;
        EXPECT_LE(d.minimized_count, 12u) << d.fingerprint;  // spec.count cap
    }
}

TEST(CampaignEngine, ReportCarriesThroughputInputsAndStats) {
    core::CampaignEngine engine(default_config(16, 1));
    const core::CampaignReport report = engine.run();
    EXPECT_EQ(report.base_seed, 7u);
    EXPECT_EQ(report.scenarios, 16u);
    EXPECT_EQ(report.backends, std::vector<std::string>{"sdnet"});
    EXPECT_EQ(report.programs, core::SpecGenerator::default_programs());
    EXPECT_GT(report.packets_injected, 16u * 4u);  // >= count per scenario, x2 devices
    EXPECT_GT(engine.stats().scenarios_per_sec, 0.0);
    EXPECT_GT(engine.stats().packets_per_sec, 0.0);
    // The deterministic report never embeds wall-clock numbers.
    EXPECT_EQ(report.to_json().find("per_sec"), std::string::npos);
}

TEST(CampaignEngine, ScenariosAreAPureFunctionOfTheSeed) {
    const core::SpecGenerator gen;
    for (const std::uint64_t seed : {1ull, 17ull, 923ull}) {
        const core::Scenario a = gen.make(seed);
        const core::Scenario b = gen.make(seed);
        EXPECT_EQ(a.program, b.program);
        EXPECT_EQ(a.spec.count, b.spec.count);
        EXPECT_EQ(a.config.size(), b.config.size());
        for (std::uint64_t seq = 1; seq <= a.spec.count; ++seq) {
            EXPECT_TRUE(core::instantiate(a.spec.tmpl, seq)
                            .same_bytes(core::instantiate(b.spec.tmpl, seq)));
        }
    }
}

TEST(CampaignEngine, UnknownProgramOrBackendIsAnError) {
    EXPECT_THROW(core::SpecGenerator({"no_such_program"}), std::invalid_argument);
    core::CampaignConfig config = default_config(1, 1);
    config.duts = {core::BackendSpec{"no_such_backend", std::nullopt, ""}};
    core::CampaignEngine engine(config);
    EXPECT_THROW(engine.run(), std::invalid_argument);
}

TEST(CampaignEngine, RegisteredBackendsJoinTheSweepByDefault) {
    // Third-party backends become DUTs without touching the engine: an
    // empty dut list sweeps everything in the registry but the reference.
    target::register_backend(
        "shifty_sim", [](std::optional<dataplane::Quirks> quirks) {
            target::DeviceConfig cfg;
            cfg.backend = "shifty_sim";
            if (quirks) {
                cfg.quirks = *quirks;
            } else {
                cfg.quirks.shift_miscompile = true;
            }
            return target::make_reference_device(std::move(cfg));
        });

    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = 12;
    config.threads = 2;
    config.programs = {"shift_mangler"};
    core::CampaignEngine engine(config);
    const core::CampaignReport report = engine.run();

    EXPECT_NE(std::find(report.backends.begin(), report.backends.end(),
                        "shifty_sim"),
              report.backends.end());
    bool found = false;
    for (const auto& d : report.divergences) {
        if (d.backend == "shifty_sim") {
            found = true;
            EXPECT_NE(d.quirk_signature.find("shift_miscompile"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(found) << report.to_string();
}

// Loads across every LoadFailingDevice in the process.
std::atomic<int> g_failing_loads{0};
constexpr int kFailingLoad = 20;

// A faithful device whose kFailingLoad-th load() across all instances
// throws; every other call is forwarded to a reference device.
class LoadFailingDevice final : public ndb_test::ForwardingDevice {
public:
    using ForwardingDevice::ForwardingDevice;

    control::Status load(const p4::ir::Program& prog) override {
        if (++g_failing_loads == kFailingLoad) {
            throw std::runtime_error("device refused the image");
        }
        return ForwardingDevice::load(prog);
    }
};

TEST(CampaignEngine, DeviceErrorInALaterGuidedRoundIsRethrown) {
    // Guided rounds reuse the same worker threads; an error in one of them
    // must still reach the caller, with every worker joined, rather than
    // hang the round or terminate the process.
    target::register_backend(
        "load_fails_late", [](std::optional<dataplane::Quirks>) {
            target::DeviceConfig cfg;
            cfg.backend = "load_fails_late";
            return std::make_unique<LoadFailingDevice>(
                target::make_reference_device(std::move(cfg)));
        });
    core::CampaignConfig config;
    config.base_seed = 7;
    config.scenarios = 40;  // five rounds of eight slots
    config.threads = 2;
    config.coverage = true;
    config.programs = {"l2_switch", "ipv4_router"};
    config.duts = {core::BackendSpec{"load_fails_late", std::nullopt, "late"}};
    g_failing_loads = 0;
    core::CampaignEngine engine(config);
    EXPECT_THROW(engine.run(), std::runtime_error);
    EXPECT_GE(g_failing_loads.load(), kFailingLoad);

    // Past its failing call the backend is healthy, and a new campaign on
    // new workers runs to the end.  A clean scenario loads the DUT once,
    // so the failing load above fell in the third round.
    config.scenarios = 8;
    core::CampaignEngine again(config);
    const int before = g_failing_loads.load();
    EXPECT_EQ(again.run().scenarios, 8u);
    EXPECT_EQ(g_failing_loads.load() - before, 8);
}

// Random template fields are built a 64-bit draw at a time; the bits must be
// exactly those of the one-bit-at-a-time construction they replaced (same
// draws, same order, low chunk first), or every generated packet changes.
TEST(PacketTemplate, RandomFieldsMatchABitByBitReference) {
    core::PacketTemplate tmpl;
    std::vector<std::uint8_t> base(72);
    for (std::size_t i = 0; i < base.size(); ++i) {
        base[i] = static_cast<std::uint8_t>(0xa5 ^ (i * 7));
    }
    tmpl.base = packet::Packet(base);
    tmpl.seed = 0xfeed;
    // Unaligned, non-overlapping fields of each interesting width.
    const std::vector<std::pair<std::size_t, int>> fields = {
        {3, 1}, {40, 63}, {110, 64}, {180, 65}, {250, 128}, {390, 130}};
    for (const auto& [offset, width] : fields) {
        core::FieldMutation m;
        m.bit_offset = offset;
        m.width = width;
        m.mode = core::FieldMutation::Mode::random;
        tmpl.mutations.push_back(m);
    }
    for (std::uint64_t seq = 0; seq < 32; ++seq) {
        packet::Packet expect = tmpl.base;
        for (const auto& m : tmpl.mutations) {
            util::Rng rng(tmpl.seed ^ (seq * 0x9e3779b97f4a7c15ull) ^
                          (m.bit_offset << 16));
            util::Bitvec v(m.width);
            for (int i = 0; i < m.width; i += 64) {
                const std::uint64_t bits = rng.next_u64();
                for (int b = 0; b < 64 && i + b < m.width; ++b) {
                    v.set_bit(i + b, (bits >> b) & 1);
                }
            }
            expect.deposit_bits(m.bit_offset, v);
        }
        EXPECT_TRUE(core::instantiate(tmpl, seq).same_bytes(expect)) << "seq " << seq;
    }
}

}  // namespace

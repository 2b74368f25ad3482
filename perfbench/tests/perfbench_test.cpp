// Self-tests of the benchmark: the timing proxy is transparent, the output
// checks reject doctored reports, and the seed-list parser rejects junk.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench.h"

namespace {

using namespace perfbench;
using ndb::core::CampaignConfig;
using ndb::core::CampaignEngine;
using ndb::core::CampaignReport;

CampaignReport run_engine(const CampaignConfig& cfg) {
    CampaignEngine engine(cfg);
    return engine.run();
}

// --- proxy transparency -------------------------------------------------------

TEST(Proxy, CleanSweepReportIsByteIdenticalThroughTheProxy) {
    const CampaignConfig cfg = campaign_config(Workload::clean_sweep, 7, 96, 2);
    const std::string plain = run_engine(cfg).to_json();

    // Proxied backends, tracer off, two threads.
    EXPECT_EQ(run_engine(traced_config(cfg)).to_json(), plain);

    // Proxied and traced, one thread.
    CampaignConfig one = traced_config(cfg);
    one.threads = 1;
    Tracer tracer;
    set_active_tracer(&tracer);
    const std::string traced = run_engine(one).to_json();
    set_active_tracer(nullptr);
    EXPECT_EQ(traced, plain);
    EXPECT_FALSE(tracer.spans().empty());
}

TEST(Proxy, FixtureGuidedReportIsByteIdenticalThroughTheProxy) {
    const CampaignConfig cfg = campaign_config(Workload::fixture_guided, 3, 56, 2);
    const CampaignReport plain = run_engine(cfg);
    ASSERT_GT(plain.findings_total, 0u);

    EXPECT_EQ(run_engine(traced_config(cfg)).to_json(), plain.to_json());

    CampaignConfig one = traced_config(cfg);
    one.threads = 1;
    Tracer tracer;
    tracer.guided = true;
    set_active_tracer(&tracer);
    const CampaignReport traced = run_engine(one);
    const std::uint64_t end = now_ns();
    finish_guided_trace(end);
    set_active_tracer(nullptr);
    EXPECT_EQ(traced.to_json(), plain.to_json());

    // The inferred phases reconcile with the report.
    const std::uint64_t start = tracer.spans().front().start_ns;
    EXPECT_EQ(check_trace(tracer.spans(), start, end), "");
    const LayerSplit split = split_layers(tracer, start, end);
    EXPECT_EQ(split.spans.at("core.scenario"), plain.scenarios);
    EXPECT_EQ(split.spans.at("core.minimize"), plain.findings_total);
    EXPECT_EQ(split.spans.at("core.localize"), plain.findings_total);
    EXPECT_EQ(split.loads_by_phase.at("core.detect"),
              plain.scenarios * (1 + plain.backends.size()));
    EXPECT_EQ(split.loads_by_phase.at("core.localize"), 2 * plain.findings_total);
    EXPECT_EQ(split.injects_by_phase.at("core.detect") +
                  split.injects_by_phase.at("core.minimize") +
                  split.injects_by_phase.at("core.localize"),
              plain.packets_injected);
}

TEST(TracedRunner, UniformReportMatchesTheEngineAndReconciles) {
    for (const Workload w : {Workload::clean_sweep, Workload::fabric_sweep}) {
        const CampaignConfig cfg = campaign_config(w, 11, 64, 1);
        const CampaignReport plain = run_engine(cfg);
        Tracer tracer;
        set_active_tracer(&tracer);
        const CampaignReport traced =
            traced_uniform_run(traced_config(cfg), false, tracer);
        const std::uint64_t end = now_ns();
        set_active_tracer(nullptr);
        EXPECT_EQ(traced.to_json(), plain.to_json()) << workload_name(w);

        const std::uint64_t start = tracer.spans().front().start_ns;
        EXPECT_EQ(check_trace(tracer.spans(), start, end), "") << workload_name(w);
        const LayerSplit split = split_layers(tracer, start, end);
        EXPECT_EQ(split.spans.at("core.scenario"), plain.scenarios);
        EXPECT_EQ(split.spans.at("target.inject"), plain.packets_injected);
        EXPECT_EQ(split.spans.at("core.minimize"), plain.findings_total);
        EXPECT_EQ(split.loads_by_phase.at("core.minimize"),
                  2 * split.items.at("core.minimize"));
    }
}

// --- trace nesting --------------------------------------------------------------

// Two scenarios inside a wall of [0, 1000] ns.  Spans 1-4: scenario,
// detect, load, inject; spans 5-6: scenario, merge.
Tracer nested_trace() {
    Tracer tr;
    const std::uint32_t a = tr.open_at(SpanName::scenario, 100);
    const std::uint32_t detect = tr.open_at(SpanName::detect, 100);
    tr.close_at(tr.open_at(SpanName::load, 110), 150);
    tr.close_at(tr.open_at(SpanName::inject, 150), 190);
    tr.close_at(detect, 200);
    tr.close_at(a, 300);
    const std::uint32_t b = tr.open_at(SpanName::scenario, 300);
    tr.close_at(tr.open_at(SpanName::merge, 400), 450);
    tr.close_at(b, 500);
    return tr;
}

TEST(TraceNesting, AWellNestedTraceAccountsForTheWall) {
    const Tracer tr = nested_trace();
    ASSERT_EQ(check_trace(tr.spans(), 0, 1000), "");
    const LayerSplit split = split_layers(tr, 0, 1000);
    double sum = split.residual_s;
    for (const auto& [layer, self] : split.self_s) {
        EXPECT_GE(self, 0) << layer;
        sum += self;
    }
    EXPECT_NEAR(sum, 1000e-9, 1e-15);
    EXPECT_NEAR(split.residual_s, 600e-9, 1e-15);
    EXPECT_NEAR(split.self_s.at("core.detect"), 20e-9, 1e-15);
}

TEST(TraceNesting, RejectsAChildThatOutlivesItsParent) {
    Tracer tr = nested_trace();
    tr.at(3).end_ns = 260;  // the load ends after its detect span
    EXPECT_NE(check_trace(tr.spans(), 0, 1000), "");
    EXPECT_LT(split_layers(tr, 0, 1000).self_s.at("core.detect"), 0);
}

TEST(TraceNesting, RejectsOverlappingRootsAndSiblings) {
    Tracer roots = nested_trace();
    roots.at(5).start_ns = 250;  // the second scenario starts inside the first
    EXPECT_NE(check_trace(roots.spans(), 0, 1000), "");

    Tracer siblings = nested_trace();
    siblings.at(4).start_ns = 140;  // the inject starts inside the load
    EXPECT_NE(check_trace(siblings.spans(), 0, 1000), "");
}

TEST(TraceNesting, RejectsRootsOutsideTheWallAndBackwardSpans) {
    const Tracer tr = nested_trace();
    EXPECT_NE(check_trace(tr.spans(), 150, 1000), "");
    EXPECT_NE(check_trace(tr.spans(), 0, 400), "");
    EXPECT_NE(check_trace(tr.spans(), 1000, 0), "");

    Tracer backward = nested_trace();
    backward.at(6).end_ns = 390;  // the merge ends before it starts
    EXPECT_NE(check_trace(backward.spans(), 0, 1000), "");
}

TEST(TracedRunner, LongStreamReportMatchesTheRunner) {
    const CampaignConfig cfg = campaign_config(Workload::long_stream, 5, 4, 1);
    LongStreamRunner runner(cfg);
    const CampaignReport plain = runner.run();
    EXPECT_EQ(check_long_stream(plain, 4), "");
    Tracer tracer;
    set_active_tracer(&tracer);
    const CampaignReport traced =
        traced_uniform_run(traced_config(cfg), true, tracer);
    set_active_tracer(nullptr);
    EXPECT_EQ(traced.to_json(), plain.to_json());
}

// --- output checks --------------------------------------------------------------

TEST(Checks, CleanChecksRejectDoctoredReports) {
    const CampaignReport good =
        run_engine(campaign_config(Workload::clean_sweep, 9, 32, 1));
    ASSERT_EQ(check_clean(good, 32, true), "");

    CampaignReport finding = good;
    finding.findings_total = 1;
    finding.divergences.push_back({});
    EXPECT_NE(check_clean(finding, 32, true), "");

    CampaignReport timeout = good;
    timeout.mgmt.timeouts = 1;
    EXPECT_NE(check_clean(timeout, 32, true), "");

    CampaignReport no_wire = good;
    no_wire.mgmt = {};
    EXPECT_NE(check_clean(no_wire, 32, true), "");

    EXPECT_NE(check_clean(good, 33, true), "");
}

TEST(Checks, LongStreamCheckRejectsAShortStream) {
    LongStreamRunner runner(campaign_config(Workload::long_stream, 2, 2, 1));
    CampaignReport report = runner.run();
    ASSERT_EQ(check_long_stream(report, 2), "");
    report.packets_injected -= 1;
    EXPECT_NE(check_long_stream(report, 2), "");
}

TEST(Checks, FixtureCheckRejectsAMissingFingerprint) {
    const CampaignReport good =
        run_engine(campaign_config(Workload::fixture_guided, 1, 56, 2));
    ASSERT_EQ(check_fixture(good), "");
    EXPECT_GT(fixture_budget_to_all(good), 0u);

    CampaignReport missing = good;
    const std::string victim = missing.divergences.front().backend;
    std::erase_if(missing.divergences,
                  [&](const auto& d) { return d.backend == victim; });
    EXPECT_NE(check_fixture(missing), "");
}

TEST(Checks, FabricCheckComparesEverythingButTheFabricBlock) {
    const CampaignReport in_process =
        run_engine(campaign_config(Workload::fabric_sweep, 4, 32, 1));
    CampaignReport fabric = in_process;
    fabric.fabric_enabled = true;
    fabric.fabric.workers = 2;
    fabric.fabric.link_frames = 123;
    EXPECT_EQ(check_fabric(fabric, in_process.to_json()), "");

    CampaignReport doctored = fabric;
    doctored.packets_injected += 1;
    EXPECT_NE(check_fabric(doctored, in_process.to_json()), "");

    doctored = fabric;
    ASSERT_FALSE(doctored.divergences.empty());
    doctored.divergences.front().duplicates += 1;
    EXPECT_NE(check_fabric(doctored, in_process.to_json()), "");

    EXPECT_NE(check_fabric(in_process, in_process.to_json()), "");  // no fabric block
}

// --- seed lists -----------------------------------------------------------------

TEST(Seeds, ParserAcceptsWellFormedLists) {
    std::string error;
    auto one = parse_seed_list("1", error);
    ASSERT_TRUE(one);
    EXPECT_EQ(*one, std::vector<std::uint64_t>{1});
    auto many = parse_seed_list("5,3,9223372036854775807", error);
    ASSERT_TRUE(many);
    EXPECT_EQ(*many, (std::vector<std::uint64_t>{5, 3, 9223372036854775807ull}));
}

TEST(Seeds, ParserRejectsJunk) {
    std::string too_many;
    for (int i = 1; i <= 65; ++i) too_many += (i > 1 ? "," : "") + std::to_string(i);
    const std::vector<std::string> junk_lists = {
        "", ",", "1,", ",1", "1,,2", "a", "1a", "-1", "+1", " 1", "1 ", "1.5",
        "0x10", "0", "1,1", "9223372036854775808", "99999999999999999999",
        too_many};
    for (const std::string& junk : junk_lists) {
        std::string error;
        EXPECT_FALSE(parse_seed_list(junk, error)) << "accepted '" << junk << "'";
        EXPECT_FALSE(error.empty()) << junk;
    }
}

TEST(Seeds, DerivedSeedsAreDeterministicAndDistinct) {
    const auto a = derive_seeds(42, 16);
    EXPECT_EQ(a, derive_seeds(42, 16));
    EXPECT_NE(a, derive_seeds(43, 16));
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], 1u);
        for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i], a[j]);
    }
}

}  // namespace

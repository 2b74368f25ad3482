// Campaign report bytes, pinned across versions.
//
// The determinism contract makes a report a pure function of its config:
// byte-identical across thread counts, worker processes, engines and
// telemetry on or off.  This test pins that function itself.  A fixed small
// sweep -- every catalogue program against the sdnet catalogue DUT, with
// minimize and localize on -- must render exactly the committed golden
// JSON, so a change that is meant to be performance-only (a faster digest,
// a leaner packet path) cannot silently move a finding, a minimized count,
// a localization verdict or a counter.
//
// The one provenance field, `engine`, is normalized before comparing, so
// the same golden holds under NDB_ENGINE=interp and NDB_ENGINE=compiled.
//
// A deliberate report change regenerates the golden: on a mismatch the test
// writes the actual report to report_golden.actual.json in its working
// directory; review the diff and copy it over tests/golden/.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign.h"

#ifndef NDB_GOLDEN_DIR
#error "NDB_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace ndb;

const char* const kGoldenFile = NDB_GOLDEN_DIR "/campaign_sdnet_400.json";
const char* const kActualFile = "report_golden.actual.json";

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string golden_sweep_report() {
    core::CampaignConfig cfg;
    cfg.base_seed = 1;
    cfg.scenarios = 400;
    cfg.threads = 2;
    cfg.duts = {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}};
    cfg.minimize = true;
    cfg.localize = true;
    core::CampaignEngine campaign(cfg);
    core::CampaignReport report = campaign.run();
    report.engine = "normalized";
    return report.to_json();
}

TEST(ReportGolden, SdnetSweepMatchesCommittedReport) {
    const std::string golden = read_file(kGoldenFile);
    const std::string actual = golden_sweep_report();
    if (actual != golden) {
        std::ofstream(kActualFile, std::ios::binary) << actual;
    }
    ASSERT_FALSE(golden.empty()) << "missing golden " << kGoldenFile
                                 << "; actual report written to " << kActualFile;
    EXPECT_EQ(actual, golden) << "report differs from " << kGoldenFile
                              << "; actual report written to " << kActualFile;
}

TEST(ReportGolden, GoldenSweepFindsAndTriagesDivergences) {
    // Guards the golden against going stale in a trivial way: the pinned
    // sweep must exercise triage, not just count clean scenarios.
    const std::string golden = read_file(kGoldenFile);
    ASSERT_FALSE(golden.empty()) << "missing golden " << kGoldenFile;
    EXPECT_NE(golden.find("\"minimized_reproduces\": true"), std::string::npos);
    EXPECT_NE(golden.find("\"stage\": \"parser\""), std::string::npos);
    EXPECT_NE(golden.find("\"engine\": \"normalized\""), std::string::npos);
}

}  // namespace

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
// A second golden pins the guided loop: the seven-flag fixture with
// coverage, mutation and concolic synthesis on, so the coverage block, the
// coverage series and the concolic recipes cannot move either.
//
// A deliberate report change regenerates a golden: on a mismatch the test
// writes the actual report into its working directory
// (report_golden.actual.json or report_golden_guided.actual.json); review
// the diff and copy it over tests/golden/.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/campaign.h"
#include "quirk_fixture.h"

#ifndef NDB_GOLDEN_DIR
#error "NDB_GOLDEN_DIR must point at tests/golden"
#endif

namespace {

using namespace ndb;

const char* const kGoldenFile = NDB_GOLDEN_DIR "/campaign_sdnet_400.json";
const char* const kActualFile = "report_golden.actual.json";
const char* const kGuidedGoldenFile =
    NDB_GOLDEN_DIR "/campaign_fixture_guided.json";
const char* const kGuidedActualFile = "report_golden_guided.actual.json";

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

// The seven-flag fixture under the full greybox loop: coverage-guided
// scheduling, mutants and concolic seeds.
std::string golden_guided_report() {
    core::CampaignConfig cfg;
    cfg.base_seed = 1;
    cfg.scenarios = 400;
    cfg.threads = 2;
    ndb_test::apply_fixture(ndb_test::seven_flag_fixture(), cfg);
    cfg.coverage = true;
    cfg.mutate = true;
    cfg.concolic = true;
    core::CampaignEngine campaign(cfg);
    core::CampaignReport report = campaign.run();
    report.engine = "normalized";
    return report.to_json();
}

void expect_matches_golden(const std::string& actual, const char* golden_file,
                           const char* actual_file) {
    const std::string golden = read_file(golden_file);
    if (actual != golden) {
        std::ofstream(actual_file, std::ios::binary) << actual;
    }
    ASSERT_FALSE(golden.empty()) << "missing golden " << golden_file
                                 << "; actual report written to " << actual_file;
    EXPECT_EQ(actual, golden) << "report differs from " << golden_file
                              << "; actual report written to " << actual_file;
}

TEST(ReportGolden, SdnetSweepMatchesCommittedReport) {
    expect_matches_golden(golden_sweep_report(), kGoldenFile, kActualFile);
}

TEST(ReportGolden, GuidedFixtureMatchesCommittedReport) {
    expect_matches_golden(golden_guided_report(), kGuidedGoldenFile,
                          kGuidedActualFile);
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

TEST(ReportGolden, GuidedGoldenExercisesTheGreyboxLoop) {
    // The guided golden must pin coverage and concolic output, not an
    // uninstrumented sweep.
    const std::string golden = read_file(kGuidedGoldenFile);
    ASSERT_FALSE(golden.empty()) << "missing golden " << kGuidedGoldenFile;
    EXPECT_NE(golden.find("\"coverage\": {"), std::string::npos);
    EXPECT_NE(golden.find("\"series\": ["), std::string::npos);
    EXPECT_NE(golden.find("\"concolic\": {"), std::string::npos);
    EXPECT_NE(golden.find("\"recipes\": [\""), std::string::npos);
    EXPECT_NE(golden.find("\"engine\": \"normalized\""), std::string::npos);
}

}  // namespace

// Crash-tolerant multi-process campaign fabric.
//
// FabricEngine runs the uniform campaign sweep across forked worker
// subprocesses that speak the wire protocol (control/wire.h) over
// socketpairs: the parent dispatches shards of scenario indices as `job`
// frames, workers execute them through the same execute_scenario() core
// the in-process engine uses and stream back `job_result` frames, and a
// heartbeat watchdog detects hung or killed workers.  The parent loop is
// event-driven: one poll() waits on every worker link at once, each pass
// reads every link without blocking, and a worker whose result was just
// folded gets its next shard in that same pass; at teardown each link is
// read to EOF and its worker reaped on the spot.  Every worker is reaped
// before run() returns or throws.  A worker that dies mid-shard is
// respawned and its shard re-dispatched, so a SIGKILL costs
// latency, never correctness: outcomes are folded in scenario order at the
// end, which keeps the CampaignReport byte-identical to the single-process
// run (the fabric's own accounting block is the one timing-dependent
// addition, and it is excluded from byte-identity by construction).
//
// The parent<->worker links are themselves faultable (FabricConfig::
// link_fault_plan): dropped/corrupted/delayed frames are absorbed by frame
// resync, job retransmission and, in the limit, the watchdog's
// kill-and-re-dispatch path -- the same degradation ladder a real
// distributed test harness needs.
#pragma once

#include <string>

#include "core/campaign.h"

namespace ndb::core {

struct FabricConfig {
    // The sweep to run.  Fabric supports the uniform sweep only: guided
    // coverage, mutation, concolic and single-recipe modes keep their
    // feedback loops at round barriers inside one process.
    CampaignConfig campaign;

    int workers = 2;
    std::uint64_t shard_size = 4;  // scenarios per job frame

    // control::FaultPlan spec applied to every parent<->worker link (both
    // directions, per-endpoint salted seeds).  Empty or "none" = clean.
    std::string link_fault_plan;

    std::uint32_t heartbeat_interval_ms = 50;
    // A worker with a shard in flight and no frame for this long is
    // declared hung, SIGKILLed and replaced.  Must exceed the worst-case
    // shard execution time.
    std::uint32_t heartbeat_timeout_ms = 10'000;
    // A worker that answers heartbeats *after* its job was sent but returns
    // no result is idle -- the job or result frame was lost on a faulty
    // link; the job is retransmitted at this cadence.
    std::uint32_t job_resend_ms = 200;

    // A worker slot that keeps dying past this many respawns aborts the
    // campaign (it is failing deterministically, not crashing by injection).
    int max_restarts_per_worker = 3;

    // Test/CI hook: SIGKILL worker 0 once, after this many job results have
    // been received (-1 = never).  Exercises the respawn + re-dispatch path
    // deterministically enough for assertions on worker_restarts.
    int kill_worker_after_results = -1;
};

class FabricEngine {
public:
    explicit FabricEngine(FabricConfig config);

    // Forks the workers, runs the sweep, reaps everything.  Throws
    // std::invalid_argument for unsupported campaign modes and
    // std::runtime_error when a worker slot exceeds its respawn budget.
    CampaignReport run();

    const CampaignStats& stats() const { return stats_; }

private:
    FabricConfig config_;
    CampaignStats stats_;
};

}  // namespace ndb::core

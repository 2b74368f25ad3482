// Management-plane messages and the host-side client that speaks them.
//
// Models the paper's dedicated host<->device management interface: requests
// are explicit messages, the device side (ControlServer, control/transport.h)
// executes them against a RuntimeApi, and RuntimeClient gives the host tool
// the same typed API over the wire.  Every mutation travels as a batch of
// ConfigOp; the only other requests are the reads, the snapshot and the
// soft reset.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "control/runtime.h"

namespace ndb::control {

// --- request messages ---------------------------------------------------------

// Batched configuration: every op of a scenario in one frame-level round
// trip.  The response carries one Status per op (Payload::op_statuses), so
// callers keep per-op accounting.
struct ApplyConfigReq {
    std::vector<ConfigOp> ops;
};
struct ReadRegisterReq {
    std::string name;
    std::uint64_t index = 0;
};
struct ReadCounterReq {
    std::string name;
    std::uint64_t index = 0;
};
struct SnapshotReq {};
struct ResetReq {};

// The variant index is the request tag on the wire (control/wire.h).
using Request = std::variant<ApplyConfigReq, ReadRegisterReq, ReadCounterReq,
                             SnapshotReq, ResetReq>;

// --- response -------------------------------------------------------------------

struct Response {
    // Which optional field below actually carries data.  Callers used to
    // have to know which field was live from the request they sent; the
    // explicit discriminator makes a mismatched (or corrupted-in-flight)
    // response a detectable protocol error instead of silently-default
    // garbage.
    enum class Payload : std::uint8_t {
        none = 0,
        register_value = 1,
        counter_value = 2,
        snapshot = 3,
        op_statuses = 4,
    };

    Status status;
    Payload payload = Payload::none;
    Bitvec register_value;       // payload == register_value
    CounterValue counter_value;  // payload == counter_value
    StatusSnapshot snapshot;     // payload == snapshot
    std::vector<Status> op_statuses;  // payload == op_statuses
};

const char* payload_name(Response::Payload payload);

class WireChannel;  // control/transport.h

// RuntimeApi implementation that tunnels every call through a WireChannel,
// giving the host tool location transparency.  The channel serializes each
// request into a wire frame, survives injected link faults via
// sequence-numbered retries, and returns first-class Status failures --
// "wire: request timed out", "response carried payload ..." -- instead of
// default-constructed garbage.  Each string-addressed mutation is a one-op
// apply(); the handle overloads inherit RuntimeApi's name-based defaults.
class RuntimeClient final : public RuntimeApi {
public:
    explicit RuntimeClient(WireChannel& channel) : channel_(&channel) {}

    Status add_entry(const std::string& table, const EntrySpec& entry) override;
    Status delete_entry(const std::string& table, const EntrySpec& entry) override;
    Status set_default_action(const std::string& table, const std::string& action,
                              const std::vector<Bitvec>& args) override;
    Status clear_table(const std::string& table) override;
    Status write_register(const std::string& name, std::uint64_t index,
                          const Bitvec& value) override;
    Status read_register(const std::string& name, std::uint64_t index,
                         Bitvec& out) override;
    Status read_counter(const std::string& name, std::uint64_t index,
                        CounterValue& out) override;
    Status configure_meter(const std::string& name, std::uint64_t index,
                           const MeterConfig& config) override;
    // One ApplyConfigReq frame for the whole batch.  A transport-level
    // failure (timeout, wrong payload) is reported on every op, so per-op
    // accounting -- including the "wire:" failure-message convention --
    // survives the batching.
    std::vector<Status> apply(std::span<const ConfigOp> ops) override;
    StatusSnapshot snapshot() override;
    Status reset_state() override;

private:
    // Ships one mutation as a single-op ApplyConfigReq.
    Status apply_one(ConfigOp op);
    // Shared guard for the read-style calls: a success response whose
    // payload discriminator does not match `want` is a protocol error.
    static Status expect_payload(const Response& response,
                                 Response::Payload want);

    WireChannel* channel_;
};

}  // namespace ndb::control

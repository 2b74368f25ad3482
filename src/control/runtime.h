// Control-plane runtime API.
//
// This is the management surface a host tool uses to program and inspect a
// device: table entries, default actions, registers, counters, meters and
// the status snapshot.  Devices implement it directly; RuntimeClient speaks
// it over the wire (the paper's "dedicated interface"), where every mutation
// travels as a ConfigOp.
//
// Two addressing modes coexist.  The string overloads name tables and
// externs the way P4 source does and re-resolve on every call; the handle
// overloads resolve once (resolve_table / resolve_extern) and then address
// by id, which is what a production controller holding thousands of flow
// entries actually does.  Handles are invalidated by load(): backends bump
// a generation counter, and an op presented with a stale handle fails
// loudly instead of poking whatever now owns that id.
//
// The virtual member set below -- both overload families included -- is
// frozen for now: the campaign benchmark's timing proxy (perfbench/)
// overrides every member, and the benchmark's sources change only together
// with the benchmark itself.  Collapsing the string overloads onto handles
// waits for such a change.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "control/config.h"
#include "control/snapshot.h"
#include "util/bitvec.h"

namespace ndb::control {

using util::Bitvec;

// Resolved reference to a table.  `id` < 0 means the backend does not
// support handle addressing (the base-class default); ops on such a handle
// fall back to the carried name.
struct TableHandle {
    int id = -1;
    std::uint64_t generation = 0;
    std::string name;

    bool valid() const { return id >= 0; }
};

// Resolved reference to an extern (register / counter / meter) instance.
struct ExternHandle {
    int id = -1;
    std::uint64_t generation = 0;
    std::string name;

    bool valid() const { return id >= 0; }
};

class RuntimeApi {
public:
    virtual ~RuntimeApi() = default;

    // --- resolution ---------------------------------------------------------
    // The defaults return name-only handles (id -1): every op on them takes
    // the string path below, so backends that never override these still
    // speak the whole handle API correctly, just without the fast path.
    virtual TableHandle resolve_table(const std::string& name) {
        TableHandle h;
        h.name = name;
        return h;
    }
    virtual ExternHandle resolve_extern(const std::string& name) {
        ExternHandle h;
        h.name = name;
        return h;
    }

    // --- string-addressed surface -------------------------------------------
    virtual Status add_entry(const std::string& table, const EntrySpec& entry) = 0;
    virtual Status delete_entry(const std::string& table, const EntrySpec& entry) = 0;
    virtual Status set_default_action(const std::string& table,
                                      const std::string& action,
                                      const std::vector<Bitvec>& args) = 0;
    virtual Status clear_table(const std::string& table) = 0;

    virtual Status write_register(const std::string& name, std::uint64_t index,
                                  const Bitvec& value) = 0;
    virtual Status read_register(const std::string& name, std::uint64_t index,
                                 Bitvec& out) = 0;
    virtual Status read_counter(const std::string& name, std::uint64_t index,
                                CounterValue& out) = 0;
    virtual Status configure_meter(const std::string& name, std::uint64_t index,
                                   const MeterConfig& config) = 0;

    // --- handle-addressed surface -------------------------------------------
    // Defaults delegate to the string overloads via the handle's name, so
    // every RuntimeApi (RuntimeClient included) accepts handles; backends
    // with id-indexed stores override for resolution-free dispatch.
    virtual Status add_entry(const TableHandle& table, const EntrySpec& entry) {
        return add_entry(table.name, entry);
    }
    virtual Status delete_entry(const TableHandle& table, const EntrySpec& entry) {
        return delete_entry(table.name, entry);
    }
    virtual Status set_default_action(const TableHandle& table,
                                      const std::string& action,
                                      const std::vector<Bitvec>& args) {
        return set_default_action(table.name, action, args);
    }
    virtual Status write_register(const ExternHandle& ext, std::uint64_t index,
                                  const Bitvec& value) {
        return write_register(ext.name, index, value);
    }
    virtual Status read_register(const ExternHandle& ext, std::uint64_t index,
                                 Bitvec& out) {
        return read_register(ext.name, index, out);
    }

    // --- batched configuration ----------------------------------------------
    // Applies the ops in order and returns one Status per op (never fewer:
    // a transport-level loss reports per-op failures).  The default loops
    // apply_config_op locally; RuntimeClient overrides it with a single
    // frame-level round trip over the wire.
    virtual std::vector<Status> apply(std::span<const ConfigOp> ops);

    virtual StatusSnapshot snapshot() = 0;
    virtual Status reset_state() = 0;
};

}  // namespace ndb::control

#include "control/config.h"

#include "control/runtime.h"

namespace ndb::control {

Status apply_config_op(RuntimeApi& rt, const ConfigOp& op) {
    switch (op.kind) {
        case ConfigOp::Kind::add_entry:
            return rt.add_entry(rt.resolve_table(op.target), op.entry);
        case ConfigOp::Kind::set_default_action:
            return rt.set_default_action(rt.resolve_table(op.target), op.action,
                                         op.action_args);
        case ConfigOp::Kind::write_register:
            return rt.write_register(rt.resolve_extern(op.target), op.index,
                                     op.value);
        case ConfigOp::Kind::configure_meter:
            return rt.configure_meter(op.target, op.index, op.meter);
        case ConfigOp::Kind::delete_entry:
            return rt.delete_entry(rt.resolve_table(op.target), op.entry);
        case ConfigOp::Kind::clear_table:
            return rt.clear_table(op.target);
    }
    return Status::failure("unknown config op");
}

std::vector<Status> RuntimeApi::apply(std::span<const ConfigOp> ops) {
    std::vector<Status> statuses;
    statuses.reserve(ops.size());
    for (const ConfigOp& op : ops) statuses.push_back(apply_config_op(*this, op));
    return statuses;
}

}  // namespace ndb::control

// The immutable half of a loaded data plane: one Image per (program, quirks).
//
// Everything the execution engines derive from a program and its Quirks
// alone -- the threaded-code CompiledProgram, the packet-state layout with
// its initial-state template, the timestamp-read scan that gates
// expiry_off_by_one, and the branch ordinals coverage keys on -- is built
// once here and shared,
// read-only, by every Pipeline that runs that pair, on any thread.  What a
// device mutates (tables, stateful externs, counters, execution scratch)
// stays per Pipeline.
//
// Pipelines get theirs from image_for(), which serves a process-wide cache
// keyed on (program identity, full Quirks value); loading the same program
// on many devices, or reloading it scenario after scenario, builds its
// image once.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dataplane/compiled_ops.h"
#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "p4/ir.h"

namespace ndb::dataplane {

struct Image {
    Image(const std::shared_ptr<const p4::ir::Program>& prog, const Quirks& q);

    // The program this image was built from.  The image never owns it:
    // whoever runs the image (a device, a checker) holds the program's
    // shared_ptr for as long as it does, so neither the cache nor an
    // image ever extends a program's lifetime.  `source` is the weak
    // owner the cache uses to tell a live entry from a dead one.
    const p4::ir::Program& program;
    std::weak_ptr<const p4::ir::Program> source;

    Quirks quirks;

    // compile(program, quirks).
    compiled::CompiledProgram code;

    // Where every field lives in a PacketState's word array (state.h), and
    // the template every packet's state is reset from: metadata headers
    // valid, fields zeroed -- or, under quirks.metadata_clobber, user
    // metadata carrying the uninitialized-memory pattern.  Shared with every
    // state (and tap copy) the image's pipelines hand out.  compile() lays
    // the program out with the same function, so the offsets baked into
    // `code` index this layout.
    std::shared_ptr<const StateLayout> layout;

    // Whether any expression reads the ingress timestamp (the aging clock
    // expiry_off_by_one perturbs; see Pipeline::process).
    bool reads_timestamp = false;

    // p4::ir::number_branches(program): the branch-coverage ordinals.
    std::unordered_map<const p4::ir::Stmt*, std::uint32_t> branch_ids;
};

// The shared image for (prog, quirks), built on first request.  Thread-safe.
// Two requests share one image exactly when they name the same program
// object (same shared owner) and equal Quirks values.  Throws whatever
// compile() throws on a malformed program; nothing is cached then.
std::shared_ptr<const Image> image_for(
    const std::shared_ptr<const p4::ir::Program>& prog, const Quirks& quirks);

}  // namespace ndb::dataplane

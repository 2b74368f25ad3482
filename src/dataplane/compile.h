// IR -> threaded-code specializer and its dispatch-loop executor.
//
// compile() lowers one p4::ir::Program (under one Quirks value) into the
// flat CompiledProgram image described in compiled_ops.h; it runs once per
// (program, quirks), when dataplane::Image is built.  CompiledPipeline
// executes that image with the same observable semantics as the tree
// walkers it replaces -- ParserEngine::run and Interpreter::run_control --
// including cycle accounting, coverage sites (same salts, same ordinals)
// and error behaviour, which the interp-vs-compiled differential tests
// assert over the whole catalogue x quirk matrix.
//
// Pipeline::process stays the single orchestrator (counters, taps, digest
// capture, fault hooks, traffic manager) and dispatches per stage to one
// engine or the other, so everything recorded around the stages is
// identical across engines by construction.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "dataplane/compiled_ops.h"
#include "dataplane/image.h"
#include "dataplane/interp.h"
#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "p4/ir.h"
#include "packet/packet.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::dataplane {

// Lowers `prog` to threaded code.  The image is a pure function of
// (prog, quirks): quirks that alter execution semantics are baked into the
// emitted opcodes (shift_miscompile, skip_checksum_update,
// parser_depth_limit); reject_as_accept stays a runtime check in the
// parser epilogue.  Throws std::out_of_range on malformed state references.
compiled::CompiledProgram compile(const p4::ir::Program& prog, const Quirks& quirks);

// Executes the compiled code of an Image (image.h); it never compiles.
// All per-packet machinery (value stack, call frames, key/arg/byte scratch)
// is pooled on the object, so steady-state execution performs no heap
// allocation -- same contract as Interpreter.  The image must outlive it.
class CompiledPipeline {
public:
    CompiledPipeline(const Image& image, TableSet& tables, StatefulSet& stateful);

    ParserVerdict run_parser(const packet::Packet& pkt, PacketState& state);
    void run_ingress(PacketState& state);
    void run_egress(PacketState& state);

    // Specialized deparser: one streaming pass over the pre-resolved field
    // layout, writing each output byte exactly once (the generic deparse()
    // re-reads the covering bytes per field).  Byte-identical output; falls
    // back to the generic routine for headers whose fields do not tile
    // [0, size_bits) contiguously.
    packet::Packet deparse(const PacketState& state) const;

    // Same contract as Interpreter::set_coverage / ParserEngine::set_coverage:
    // the compiled stream records the identical sites with the identical
    // salts, so the two engines fill the same CoverageMap slots.
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

private:
    Bitvec eval(compiled::ExprRef ref, const PacketState& state, const Frame& frame);
    void eval_args(const compiled::Inst& in, const PacketState& state,
                   const Frame& frame, std::vector<Bitvec>& out);
    void run_control(const compiled::Routine& routine, PacketState& state);
    void exec(std::uint32_t pc, PacketState& state);
    ParserVerdict pfinish(const packet::Packet& pkt, PacketState& state,
                          ParserVerdict verdict);

    Frame& push_frame() {
        if (depth_ >= frames_.size()) frames_.emplace_back();
        return frames_[depth_++];
    }

    const p4::ir::Program& prog_;
    StatefulSet& stateful_;
    Quirks quirks_;
    const compiled::CompiledProgram& cp_;
    const StateLayout& layout_;  // Image::layout
    // Direct table handles, indexed by table id: resolved once from the
    // TableSet at construction (Slot pointers are stable for its lifetime).
    std::vector<TableSet::Slot*> slots_;

    coverage::CoverageMap* coverage_ = nullptr;
    std::uint64_t cov_salt_ = 0;  // program_salt(prog_.name) ^ device salt

    // Pooled execution scratch (see class comment).
    std::vector<Bitvec> stack_;
    std::deque<Frame> frames_;  // deque: references stay valid while growing
    std::size_t depth_ = 0;
    std::vector<std::uint32_t> rstack_;
    std::vector<Bitvec> keys_scratch_;
    std::vector<Bitvec> args_scratch_;
    std::vector<Bitvec> pkeys_;
    std::vector<std::uint8_t> bytes_scratch_;
    Frame empty_frame_;  // parser expressions have no locals or params

    // Parser machine registers.
    std::size_t cursor_ = 0;
    std::size_t total_bits_ = 0;
    int visited_ = 0;
    int extracts_ = 0;
    int current_ = 0;
};

}  // namespace ndb::dataplane

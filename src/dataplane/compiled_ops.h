// Op tables for the threaded-code engine.
//
// compile.cpp lowers a p4::ir::Program into one flat vector<Inst> (control
// flow, statements, parser states) plus one flat vector<ExprInst> (postfix
// expression bytecode over a reusable Bitvec value stack).  Everything the
// tree-walker resolves per packet is resolved here once per program: each
// field operand is its slot in the packet-state layout (word offset, width;
// see state.h), header indices index the valid bitmap, branch targets are
// absolute pcs, constant subexpressions are folded into a literal pool,
// select-case keysets are pre-masked, and quirks that change semantics
// (shift_miscompile, skip_checksum_update, parser_depth_limit) are baked
// into the chosen opcodes.
//
// The encodings are deliberately pointer-free: a compiled image is a pure
// function of (program, quirks), which is what the compiler-determinism
// test asserts and what keeps campaign reports byte-identical across
// engines.  Table ids are resolved to TableSet::Slot pointers only when the
// image is attached to a CompiledPipeline (compile.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.h"

namespace ndb::dataplane::compiled {

using util::Bitvec;

// --- expression bytecode ------------------------------------------------------

enum class EOp : std::uint8_t {
    const_pool,  // push consts[a]
    field,       // push the field at word a, width b
    param,       // push frame.params[a]
    local,       // push frame.locals[a]
    valid,       // push Bitvec(1, header a valid)

    neg,         // arithmetic negate top of stack
    bnot,
    lnot,        // Bitvec(1, top.is_zero())

    add, sub, mul, band, bor, bxor,
    shl,         // clamped shift left (amount from top of stack)
    shr,         // clamped logical shift right
    shr_as_shl,  // shift_miscompile lowering: shr emitted as shl
    eq, ne, ult, ule, ugt, uge,
    concat,
    land, lor,   // eager logicals: IR expressions are side-effect free, so
                 // evaluating both operands matches short-circuit semantics
    select,      // ternary: pops else, then, cond

    slice,       // top[a:b]
    cast,        // top.resize(a)
};

struct ExprInst {
    EOp op = EOp::const_pool;
    std::int32_t a = 0;
    std::int32_t b = 0;

    friend bool operator==(const ExprInst&, const ExprInst&) = default;
};

// Range [begin, begin+len) into CompiledProgram::expr_code; len 0 = absent
// (e.g. an extern with no index expression).
struct ExprRef {
    std::uint32_t begin = 0;
    std::uint32_t len = 0;

    friend bool operator==(const ExprRef&, const ExprRef&) = default;
};

// --- instruction stream -------------------------------------------------------

enum class Op : std::uint8_t {
    // Statements (each costs the interpreter's one cycle unless noted).  A
    // "field a/b" operand is a field slot: word offset a, width b.
    assign_field,   // field a/b = expr
    assign_local,   // locals[a] = expr
    assign_slice,   // field a/b [c:d] = expr (c = hi, d = lo)
    branch_false,   // if expr is zero jump to a; b = pre-order branch ordinal
    jump,           // pc = a
    apply_table,    // a = table id; args = key exprs (costs two cycles)
    call_action,    // a = action id; args = argument exprs
    set_valid,      // header a valid = (b != 0)
    exit_run,       // exit statement: unwind every frame of this run
    ret,            // return from an action body
    halt,           // end of a control stream

    // Externs.
    ext_mark_to_drop,    // field a/b (egress_spec) = drop port
    ext_register_read,   // field a/b = regs[c][expr], width d
    ext_register_write,  // regs[a][expr] = expr2
    ext_counter_count,   // counters[a][expr] += packet bytes
    ext_meter_execute,   // field a/b = color of meters[c][expr]
    ext_hash,            // field a/b = crc32(args), width d
    ext_checksum,        // recompute checksum field b of header a
    ext_nop,             // cycle only (ExternKind::none, quirked-out checksum)

    // Parser (cycle accounting matches ParserEngine op for op).
    pstate,         // enter state a: loop guard then one cycle
    pextract,       // extract header a (b = size_bits, c = depth limit, 0 = none)
    padvance,       // cursor += a bits (bounds-checked)
    passign,        // field a/b = expr.resize(c)
    ptrans,         // direct transition to a; b = target pc when a is a state
    pselect_keys,   // evaluate args into the parser key scratch
    pcase,          // sets [a, b) all match => go to c (target pc d)
    pselect_fail,   // no case matched: transition to reject
};

struct Inst {
    Op op = Op::halt;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    std::int32_t d = 0;
    ExprRef expr;                  // condition / RHS / extern index
    ExprRef expr2;                 // register_write value
    std::uint32_t args_begin = 0;  // range into CompiledProgram::arg_refs
    std::uint32_t args_len = 0;

    friend bool operator==(const Inst&, const Inst&) = default;
};

// One pre-masked keyset of a select case: key < 0 never occurs (compile
// drops "any" sets entirely); match is keys[key] & mask == value_masked.
struct CaseSet {
    std::int32_t key = 0;
    Bitvec mask;
    Bitvec value_masked;  // value & mask, folded at compile time

    friend bool operator==(const CaseSet&, const CaseSet&) = default;
};

// Entry point plus local-variable widths of one body (control or action).
struct Routine {
    std::uint32_t entry_pc = 0;
    std::uint32_t widths_begin = 0;  // range into CompiledProgram::width_pool
    std::uint32_t widths_len = 0;

    friend bool operator==(const Routine&, const Routine&) = default;
};

struct CompiledProgram {
    std::vector<Inst> code;
    std::vector<ExprInst> expr_code;
    std::vector<Bitvec> consts;      // interned literal pool
    std::vector<ExprRef> arg_refs;   // table keys / action args / hash inputs
    std::vector<CaseSet> case_sets;
    std::vector<int> width_pool;

    Routine ingress;
    Routine egress;                  // valid when has_egress
    bool has_egress = false;
    std::vector<Routine> actions;    // indexed by action id

    std::uint32_t parser_pc = 0;     // entry pc of the start state
    int start_state = 0;

    friend bool operator==(const CompiledProgram&, const CompiledProgram&) = default;

    // Deterministic text dump (tests and debugging).
    std::string disassemble() const;
};

}  // namespace ndb::dataplane::compiled

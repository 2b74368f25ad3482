#include "dataplane/compile.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "coverage/coverage.h"
#include "dataplane/deparser.h"
#include "dataplane/parser_engine.h"
#include "packet/checksum.h"
#include "util/strings.h"

namespace ndb::dataplane {

using compiled::CaseSet;
using compiled::CompiledProgram;
using compiled::EOp;
using compiled::ExprInst;
using compiled::ExprRef;
using compiled::Inst;
using compiled::Op;
using compiled::Routine;
using p4::ir::Expr;
using p4::ir::Program;
using p4::ir::Stmt;

// --- compiler -----------------------------------------------------------------

namespace {

// True when the subtree contains no packet/frame reads, so its value is a
// pure function of the program (and quirks) and folds at compile time.
bool is_const_expr(const Expr& e) {
    switch (e.kind) {
        case Expr::Kind::constant:
            return true;
        case Expr::Kind::field:
        case Expr::Kind::param:
        case Expr::Kind::local:
        case Expr::Kind::is_valid:
            return false;
        case Expr::Kind::unary:
        case Expr::Kind::slice:
        case Expr::Kind::cast:
            return is_const_expr(*e.a);
        case Expr::Kind::binary:
            return is_const_expr(*e.a) && is_const_expr(*e.b);
        case Expr::Kind::ternary:
            return is_const_expr(*e.a) && is_const_expr(*e.b) && is_const_expr(*e.c);
    }
    return false;
}

class Compiler {
public:
    Compiler(const Program& prog, const Quirks& quirks)
        : prog_(prog),
          quirks_(quirks),
          branch_ids_(p4::ir::number_branches(prog)),
          layout_(prog, /*clobber_meta=*/false) {}

    CompiledProgram run() {
        cp_.ingress = lower_routine(prog_.ingress.body, prog_.ingress.local_widths,
                                    Op::halt);
        cp_.has_egress = prog_.egress.has_value();
        if (prog_.egress) {
            cp_.egress = lower_routine(prog_.egress->body,
                                       prog_.egress->local_widths, Op::halt);
        }
        cp_.actions.reserve(prog_.actions.size());
        for (const auto& action : prog_.actions) {
            cp_.actions.push_back(
                lower_routine(action.body, action.local_widths, Op::ret));
        }
        lower_parser();
        return std::move(cp_);
    }

private:
    // Field operands are the field's slot in the packet-state layout: the
    // word offset goes in one operand, the width in the next.
    void set_slot(std::int32_t& word, std::int32_t& width, p4::ir::FieldRef ref) const {
        const FieldSlot& slot = layout_.slot(ref);
        word = static_cast<std::int32_t>(slot.word);
        width = slot.width;
    }

    std::size_t emit(Inst in) {
        cp_.code.push_back(in);
        return cp_.code.size() - 1;
    }

    std::int32_t intern_const(const Bitvec& v) {
        for (std::size_t i = 0; i < cp_.consts.size(); ++i) {
            if (cp_.consts[i] == v) return static_cast<std::int32_t>(i);
        }
        cp_.consts.push_back(v);
        return static_cast<std::int32_t>(cp_.consts.size() - 1);
    }

    void emit_expr(const Expr& e) {
        // Constant folding: a read-free subtree evaluates now, through the
        // same eval_expr the interpreter runs (so quirk-dependent semantics
        // like shift_miscompile fold identically), and lowers to one pool
        // push.
        if (is_const_expr(e)) {
            const Bitvec v =
                eval_expr(prog_, e, fold_state_, fold_frame_, quirks_);
            cp_.expr_code.push_back({EOp::const_pool, intern_const(v), 0});
            return;
        }
        switch (e.kind) {
            case Expr::Kind::constant:
                break;  // handled by the fold above
            case Expr::Kind::field: {
                ExprInst in{EOp::field, 0, 0};
                set_slot(in.a, in.b, e.fref);
                cp_.expr_code.push_back(in);
                return;
            }
            case Expr::Kind::param:
                cp_.expr_code.push_back({EOp::param, e.index, 0});
                return;
            case Expr::Kind::local:
                cp_.expr_code.push_back({EOp::local, e.index, 0});
                return;
            case Expr::Kind::is_valid:
                cp_.expr_code.push_back({EOp::valid, e.fref.header, 0});
                return;
            case Expr::Kind::unary: {
                emit_expr(*e.a);
                EOp op = EOp::neg;
                switch (e.un) {
                    case p4::ast::UnOp::neg: op = EOp::neg; break;
                    case p4::ast::UnOp::bnot: op = EOp::bnot; break;
                    case p4::ast::UnOp::lnot: op = EOp::lnot; break;
                }
                cp_.expr_code.push_back({op, 0, 0});
                return;
            }
            case Expr::Kind::binary: {
                using p4::ast::BinOp;
                emit_expr(*e.a);
                emit_expr(*e.b);
                EOp op = EOp::add;
                switch (e.bin) {
                    case BinOp::add: op = EOp::add; break;
                    case BinOp::sub: op = EOp::sub; break;
                    case BinOp::mul: op = EOp::mul; break;
                    case BinOp::band: op = EOp::band; break;
                    case BinOp::bor: op = EOp::bor; break;
                    case BinOp::bxor: op = EOp::bxor; break;
                    case BinOp::shl: op = EOp::shl; break;
                    case BinOp::shr:
                        // The vendor-bug quirk is resolved at compile time.
                        op = quirks_.shift_miscompile ? EOp::shr_as_shl : EOp::shr;
                        break;
                    case BinOp::eq: op = EOp::eq; break;
                    case BinOp::ne: op = EOp::ne; break;
                    case BinOp::lt: op = EOp::ult; break;
                    case BinOp::le: op = EOp::ule; break;
                    case BinOp::gt: op = EOp::ugt; break;
                    case BinOp::ge: op = EOp::uge; break;
                    case BinOp::concat: op = EOp::concat; break;
                    case BinOp::land: op = EOp::land; break;
                    case BinOp::lor: op = EOp::lor; break;
                }
                cp_.expr_code.push_back({op, 0, 0});
                return;
            }
            case Expr::Kind::ternary:
                emit_expr(*e.c);
                emit_expr(*e.a);
                emit_expr(*e.b);
                cp_.expr_code.push_back({EOp::select, 0, 0});
                return;
            case Expr::Kind::slice:
                emit_expr(*e.a);
                cp_.expr_code.push_back({EOp::slice, e.hi, e.lo});
                return;
            case Expr::Kind::cast:
                emit_expr(*e.a);
                cp_.expr_code.push_back({EOp::cast, e.width, 0});
                return;
        }
        throw std::logic_error("compile: unreachable expression kind");
    }

    ExprRef lower_expr(const Expr& e) {
        ExprRef ref;
        ref.begin = static_cast<std::uint32_t>(cp_.expr_code.size());
        emit_expr(e);
        ref.len = static_cast<std::uint32_t>(cp_.expr_code.size()) - ref.begin;
        return ref;
    }

    // Lowers a list of argument expressions into a contiguous arg_refs range.
    // The expressions are lowered first (lower_expr appends to expr_code),
    // then the refs are appended in one block so the range stays contiguous
    // even when an argument itself triggers nested lowering.
    template <typename Exprs>
    void lower_args(Inst& in, const Exprs& exprs) {
        std::vector<ExprRef> refs;
        refs.reserve(exprs.size());
        for (const auto& e : exprs) refs.push_back(lower_expr(*e));
        in.args_begin = static_cast<std::uint32_t>(cp_.arg_refs.size());
        in.args_len = static_cast<std::uint32_t>(refs.size());
        cp_.arg_refs.insert(cp_.arg_refs.end(), refs.begin(), refs.end());
    }

    Routine lower_routine(const std::vector<p4::ir::StmtPtr>& body,
                          const std::vector<int>& local_widths, Op tail) {
        Routine r;
        r.entry_pc = static_cast<std::uint32_t>(cp_.code.size());
        r.widths_begin = static_cast<std::uint32_t>(cp_.width_pool.size());
        r.widths_len = static_cast<std::uint32_t>(local_widths.size());
        cp_.width_pool.insert(cp_.width_pool.end(), local_widths.begin(),
                              local_widths.end());
        lower_body(body);
        Inst t;
        t.op = tail;
        emit(t);
        return r;
    }

    void lower_body(const std::vector<p4::ir::StmtPtr>& body) {
        for (const auto& s : body) lower_stmt(*s);
    }

    void lower_stmt(const Stmt& s) {
        Inst in;
        switch (s.kind) {
            case Stmt::Kind::assign_field:
                in.op = Op::assign_field;
                set_slot(in.a, in.b, s.dst);
                in.expr = lower_expr(*s.value);
                emit(in);
                return;
            case Stmt::Kind::assign_local:
                in.op = Op::assign_local;
                in.a = s.local_index;
                in.expr = lower_expr(*s.value);
                emit(in);
                return;
            case Stmt::Kind::assign_slice:
                in.op = Op::assign_slice;
                set_slot(in.a, in.b, s.dst);
                in.c = s.hi;
                in.d = s.lo;
                in.expr = lower_expr(*s.value);
                emit(in);
                return;
            case Stmt::Kind::if_stmt: {
                in.op = Op::branch_false;
                in.b = static_cast<std::int32_t>(branch_ids_.at(&s));
                in.expr = lower_expr(*s.cond);
                const std::size_t bidx = emit(in);
                lower_body(s.then_body);
                if (s.else_body.empty()) {
                    cp_.code[bidx].a = static_cast<std::int32_t>(cp_.code.size());
                } else {
                    Inst j;
                    j.op = Op::jump;
                    const std::size_t jidx = emit(j);
                    cp_.code[bidx].a = static_cast<std::int32_t>(cp_.code.size());
                    lower_body(s.else_body);
                    cp_.code[jidx].a = static_cast<std::int32_t>(cp_.code.size());
                }
                return;
            }
            case Stmt::Kind::apply_table: {
                in.op = Op::apply_table;
                in.a = s.table;
                const auto& table =
                    prog_.tables.at(static_cast<std::size_t>(s.table));
                std::vector<ExprRef> refs;
                refs.reserve(table.keys.size());
                for (const auto& k : table.keys) refs.push_back(lower_expr(*k.expr));
                in.args_begin = static_cast<std::uint32_t>(cp_.arg_refs.size());
                in.args_len = static_cast<std::uint32_t>(refs.size());
                cp_.arg_refs.insert(cp_.arg_refs.end(), refs.begin(), refs.end());
                emit(in);
                return;
            }
            case Stmt::Kind::call_action:
                in.op = Op::call_action;
                in.a = s.action;
                lower_args(in, s.action_args);
                emit(in);
                return;
            case Stmt::Kind::set_valid:
                in.op = Op::set_valid;
                in.a = s.dst.header;
                in.b = s.make_valid ? 1 : 0;
                emit(in);
                return;
            case Stmt::Kind::extern_op:
                lower_extern(s);
                return;
            case Stmt::Kind::exit_pipeline:
                in.op = Op::exit_run;
                emit(in);
                return;
        }
        throw std::logic_error("compile: unreachable statement kind");
    }

    void lower_extern(const Stmt& s) {
        Inst in;
        switch (s.ext) {
            case p4::ir::ExternKind::mark_to_drop:
                in.op = Op::ext_mark_to_drop;
                set_slot(in.a, in.b, prog_.f_egress_spec);
                break;
            case p4::ir::ExternKind::register_read:
                in.op = Op::ext_register_read;
                set_slot(in.a, in.b, s.ext_dst);
                in.c = s.extern_id;
                in.d = prog_.field(s.ext_dst).width;
                if (s.index_expr) in.expr = lower_expr(*s.index_expr);
                break;
            case p4::ir::ExternKind::register_write:
                in.op = Op::ext_register_write;
                in.a = s.extern_id;
                if (s.index_expr) in.expr = lower_expr(*s.index_expr);
                in.expr2 = lower_expr(*s.value);
                break;
            case p4::ir::ExternKind::counter_count:
                in.op = Op::ext_counter_count;
                in.a = s.extern_id;
                if (s.index_expr) in.expr = lower_expr(*s.index_expr);
                break;
            case p4::ir::ExternKind::meter_execute:
                in.op = Op::ext_meter_execute;
                set_slot(in.a, in.b, s.ext_dst);
                in.c = s.extern_id;
                in.d = prog_.field(s.ext_dst).width;
                if (s.index_expr) in.expr = lower_expr(*s.index_expr);
                break;
            case p4::ir::ExternKind::hash:
                in.op = Op::ext_hash;
                set_slot(in.a, in.b, s.ext_dst);
                in.d = prog_.field(s.ext_dst).width;
                lower_args(in, s.hash_inputs);
                break;
            case p4::ir::ExternKind::checksum_update:
                // skip_checksum_update is resolved here: the op keeps only
                // its cycle cost, exactly like the interpreter's guarded
                // call.
                if (quirks_.skip_checksum_update) {
                    in.op = Op::ext_nop;
                } else {
                    in.op = Op::ext_checksum;
                    in.a = s.hash_header;
                    in.b = s.checksum_field;
                }
                break;
            case p4::ir::ExternKind::none:
                in.op = Op::ext_nop;
                break;
        }
        emit(in);
    }

    void lower_parser() {
        const std::size_t n = prog_.parser_states.size();
        std::vector<std::uint32_t> state_pc(n, 0);
        // Transition targets referencing real states are patched once every
        // state's entry pc is known; accept/reject resolve at runtime from
        // the encoded next-state id.
        struct Fixup {
            std::size_t inst;
            int next;
            bool is_case;
        };
        std::vector<Fixup> fixups;

        for (std::size_t i = 0; i < n; ++i) {
            state_pc[i] = static_cast<std::uint32_t>(cp_.code.size());
            {
                Inst st;
                st.op = Op::pstate;
                st.a = static_cast<std::int32_t>(i);
                emit(st);
            }
            const auto& state = prog_.parser_states[i];
            for (const auto& op : state.ops) {
                Inst in;
                switch (op.kind) {
                    case p4::ir::ParserOp::Kind::extract: {
                        const auto& hdr =
                            prog_.headers.at(static_cast<std::size_t>(op.header));
                        in.op = Op::pextract;
                        in.a = op.header;
                        in.b = hdr.size_bits;
                        in.c = quirks_.parser_depth_limit;
                        break;
                    }
                    case p4::ir::ParserOp::Kind::advance:
                        in.op = Op::padvance;
                        in.a = op.bits;
                        break;
                    case p4::ir::ParserOp::Kind::assign:
                        in.op = Op::passign;
                        set_slot(in.a, in.b, op.dst);
                        in.c = prog_.field(op.dst).width;
                        in.expr = lower_expr(*op.value);
                        break;
                }
                emit(in);
            }
            const auto& t = state.transition;
            if (t.kind == p4::ir::Transition::Kind::direct) {
                Inst tr;
                tr.op = Op::ptrans;
                tr.a = t.next_state;
                const std::size_t idx = emit(tr);
                if (t.next_state >= 0) fixups.push_back({idx, t.next_state, false});
            } else {
                Inst keys;
                keys.op = Op::pselect_keys;
                lower_args(keys, t.keys);
                emit(keys);
                for (const auto& c : t.cases) {
                    Inst cs;
                    cs.op = Op::pcase;
                    cs.a = static_cast<std::int32_t>(cp_.case_sets.size());
                    for (std::size_t k = 0; k < c.sets.size(); ++k) {
                        const auto& ks = c.sets[k];
                        if (ks.any) continue;  // always matches: drop the check
                        cp_.case_sets.push_back({static_cast<std::int32_t>(k),
                                                 ks.mask,
                                                 ks.value.band(ks.mask)});
                    }
                    cs.b = static_cast<std::int32_t>(cp_.case_sets.size());
                    cs.c = c.next_state;
                    const std::size_t idx = emit(cs);
                    if (c.next_state >= 0) fixups.push_back({idx, c.next_state, true});
                }
                Inst fail;
                fail.op = Op::pselect_fail;
                emit(fail);
            }
        }

        for (const auto& f : fixups) {
            if (static_cast<std::size_t>(f.next) >= n) {
                throw std::out_of_range("compile: parser transition to unknown state");
            }
            const auto target = static_cast<std::int32_t>(state_pc[f.next]);
            if (f.is_case) {
                cp_.code[f.inst].d = target;
            } else {
                cp_.code[f.inst].b = target;
            }
        }
        cp_.start_state = prog_.start_state;
        cp_.parser_pc = (prog_.start_state >= 0 &&
                         static_cast<std::size_t>(prog_.start_state) < n)
                            ? state_pc[static_cast<std::size_t>(prog_.start_state)]
                            : 0;
    }

    const Program& prog_;
    const Quirks& quirks_;
    std::unordered_map<const Stmt*, std::uint32_t> branch_ids_;
    // The layout Image::layout computes, for the field operands' offsets.
    StateLayout layout_;
    CompiledProgram cp_;
    // Dummies for constant folding: a read-free subtree never touches them.
    PacketState fold_state_;
    Frame fold_frame_;
};

}  // namespace

compiled::CompiledProgram compile(const Program& prog, const Quirks& quirks) {
    return Compiler(prog, quirks).run();
}

// --- disassembler -------------------------------------------------------------

namespace compiled {

namespace {

const char* op_name(Op op) {
    switch (op) {
        case Op::assign_field: return "assign_field";
        case Op::assign_local: return "assign_local";
        case Op::assign_slice: return "assign_slice";
        case Op::branch_false: return "branch_false";
        case Op::jump: return "jump";
        case Op::apply_table: return "apply_table";
        case Op::call_action: return "call_action";
        case Op::set_valid: return "set_valid";
        case Op::exit_run: return "exit_run";
        case Op::ret: return "ret";
        case Op::halt: return "halt";
        case Op::ext_mark_to_drop: return "ext_mark_to_drop";
        case Op::ext_register_read: return "ext_register_read";
        case Op::ext_register_write: return "ext_register_write";
        case Op::ext_counter_count: return "ext_counter_count";
        case Op::ext_meter_execute: return "ext_meter_execute";
        case Op::ext_hash: return "ext_hash";
        case Op::ext_checksum: return "ext_checksum";
        case Op::ext_nop: return "ext_nop";
        case Op::pstate: return "pstate";
        case Op::pextract: return "pextract";
        case Op::padvance: return "padvance";
        case Op::passign: return "passign";
        case Op::ptrans: return "ptrans";
        case Op::pselect_keys: return "pselect_keys";
        case Op::pcase: return "pcase";
        case Op::pselect_fail: return "pselect_fail";
    }
    return "?";
}

const char* eop_name(EOp op) {
    switch (op) {
        case EOp::const_pool: return "const";
        case EOp::field: return "field";
        case EOp::param: return "param";
        case EOp::local: return "local";
        case EOp::valid: return "valid";
        case EOp::neg: return "neg";
        case EOp::bnot: return "bnot";
        case EOp::lnot: return "lnot";
        case EOp::add: return "add";
        case EOp::sub: return "sub";
        case EOp::mul: return "mul";
        case EOp::band: return "band";
        case EOp::bor: return "bor";
        case EOp::bxor: return "bxor";
        case EOp::shl: return "shl";
        case EOp::shr: return "shr";
        case EOp::shr_as_shl: return "shr_as_shl";
        case EOp::eq: return "eq";
        case EOp::ne: return "ne";
        case EOp::ult: return "ult";
        case EOp::ule: return "ule";
        case EOp::ugt: return "ugt";
        case EOp::uge: return "uge";
        case EOp::concat: return "concat";
        case EOp::land: return "land";
        case EOp::lor: return "lor";
        case EOp::select: return "select";
        case EOp::slice: return "slice";
        case EOp::cast: return "cast";
    }
    return "?";
}

}  // namespace

std::string CompiledProgram::disassemble() const {
    std::string out;
    out += util::format("ingress@%u egress@%u(%d) parser@%u start=%d\n",
                        ingress.entry_pc, egress.entry_pc, has_egress ? 1 : 0,
                        parser_pc, start_state);
    for (std::size_t i = 0; i < code.size(); ++i) {
        const Inst& in = code[i];
        out += util::format("%4zu  %-18s a=%d b=%d c=%d d=%d", i, op_name(in.op),
                            in.a, in.b, in.c, in.d);
        if (in.expr.len) {
            out += util::format(" expr=[%u+%u)", in.expr.begin, in.expr.len);
        }
        if (in.expr2.len) {
            out += util::format(" expr2=[%u+%u)", in.expr2.begin, in.expr2.len);
        }
        if (in.args_len) {
            out += util::format(" args=[%u+%u)", in.args_begin, in.args_len);
        }
        out += "\n";
    }
    out += util::format("expr code (%zu):\n", expr_code.size());
    for (std::size_t i = 0; i < expr_code.size(); ++i) {
        const ExprInst& e = expr_code[i];
        out += util::format("%4zu  %-10s a=%d b=%d\n", i, eop_name(e.op), e.a, e.b);
    }
    out += util::format("consts (%zu):\n", consts.size());
    for (std::size_t i = 0; i < consts.size(); ++i) {
        out += util::format("%4zu  w%d:0x%llx\n", i, consts[i].width(),
                            static_cast<unsigned long long>(
                                consts[i].width() ? consts[i].to_u64() : 0));
    }
    return out;
}

}  // namespace compiled

// --- executor -----------------------------------------------------------------

namespace {

// A field operand pair (word offset, width) as the compiler encoded it.
inline FieldSlot slot_at(std::int32_t word, std::int32_t width) {
    return {static_cast<std::uint32_t>(word), width};
}

// The low `k` bits (0 <= k <= 64).
inline std::uint64_t low_mask(int k) {
    return k >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
}

// Big-endian 64-bit load/store at an arbitrary byte address.
inline std::uint64_t load_be64(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    return w;
}

inline void store_be64(std::uint8_t* p, std::uint64_t w) {
    if constexpr (std::endian::native == std::endian::little) w = __builtin_bswap64(w);
    std::memcpy(p, &w, sizeof w);
}

// Sequential MSB-first bit reader over a packet buffer.  The caller bounds-
// checks the whole run once (cursor + header bits <= packet bits), so the
// per-field checks and re-addressing of Packet::extract_bits disappear.
struct BitReader {
    const std::uint8_t* data;
    std::size_t size;  // bytes
    std::size_t bit;

    // Next `k` bits (k <= 64), network order.  High garbage bits beyond `k`
    // may survive in the return value; callers mask them off.
    std::uint64_t read(int k) {
        const std::size_t first = bit >> 3;
        const int skew = static_cast<int>(bit & 7);
        if (k > 0 && skew + k <= 64 && first + 8 <= size) {
            // One unaligned word covers the field: drop the bits before it,
            // then right-align it.
            bit += static_cast<std::size_t>(k);
            return (load_be64(data + first) << skew) >> (64 - k);
        }
        const std::size_t end = bit + static_cast<std::size_t>(k);
        const std::size_t last = (end + 7) >> 3;  // exclusive
        unsigned __int128 acc = 0;
        for (std::size_t i = first; i < last; ++i) {
            acc = (acc << 8) | data[i];
        }
        bit = end;
        return static_cast<std::uint64_t>(acc >> (8 * last - end));
    }
};

// Sequential MSB-first bit writer: whole 64-bit words are stored as they
// fill, the trailing bits byte by byte in flush(), so every output byte is
// written exactly once.
struct BitWriter {
    std::uint8_t* out;
    std::uint64_t acc = 0;  // the `pending` bits not yet stored, right-aligned
    int pending = 0;        // < 64
    std::size_t pos = 0;

    // Appends the low `k` bits of `v` (k <= 64; higher bits must be zero,
    // which the packet-state layout guarantees).
    void push(std::uint64_t v, int k) {
        if (pending + k < 64) {
            acc = (acc << k) | v;
            pending += k;
            return;
        }
        const int rest = pending + k - 64;  // low bits of v left over
        store_be64(out + pos, (pending ? acc << (64 - pending) : 0) | (v >> rest));
        pos += 8;
        acc = v & low_mask(rest);
        pending = rest;
    }

    // Stores the pending bits, the last byte left-aligned.
    void flush() {
        while (pending >= 8) {
            pending -= 8;
            out[pos++] = static_cast<std::uint8_t>(acc >> pending);
        }
        if (pending > 0) {
            out[pos++] = static_cast<std::uint8_t>(acc << (8 - pending));
            pending = 0;
        }
    }
};

}  // namespace

CompiledPipeline::CompiledPipeline(const Image& image, TableSet& tables,
                                   StatefulSet& stateful)
    : prog_(image.program),
      stateful_(stateful),
      quirks_(image.quirks),
      cp_(image.code),
      layout_(*image.layout) {
    slots_.reserve(prog_.tables.size());
    for (std::size_t i = 0; i < prog_.tables.size(); ++i) {
        slots_.push_back(tables.slot_ptr(static_cast<int>(i)));
    }
    stack_.reserve(16);
    rstack_.reserve(8);
}

void CompiledPipeline::set_coverage(coverage::CoverageMap* map, std::uint64_t salt) {
    coverage_ = map;
    if (map) cov_salt_ = coverage::program_salt(prog_.name) ^ salt;
}

Bitvec CompiledPipeline::eval(ExprRef ref, const PacketState& state,
                              const Frame& frame) {
    const ExprInst* ip = cp_.expr_code.data() + ref.begin;
    // A lone field read or constant -- most select keys, table keys and
    // assignment sources -- needs no trip through the value stack.
    if (ref.len == 1) {
        if (ip->op == EOp::field) return state.load(slot_at(ip->a, ip->b));
        if (ip->op == EOp::const_pool) return cp_.consts[static_cast<std::size_t>(ip->a)];
    }
    auto& st = stack_;
    const auto pop = [&st]() {
        Bitvec v = std::move(st.back());
        st.pop_back();
        return v;
    };
    for (std::uint32_t n = ref.len; n-- > 0; ++ip) {
        switch (ip->op) {
            case EOp::const_pool:
                st.push_back(cp_.consts[static_cast<std::size_t>(ip->a)]);
                break;
            case EOp::field:
                st.push_back(state.load(slot_at(ip->a, ip->b)));
                break;
            case EOp::param:
                st.push_back(frame.params[static_cast<std::size_t>(ip->a)]);
                break;
            case EOp::local:
                st.push_back(frame.locals[static_cast<std::size_t>(ip->a)]);
                break;
            case EOp::valid:
                st.push_back(Bitvec(1, state.header_valid(ip->a) ? 1 : 0));
                break;
            case EOp::neg:
                st.back() = st.back().neg();
                break;
            case EOp::bnot:
                st.back() = st.back().bnot();
                break;
            case EOp::lnot:
                st.back() = Bitvec(1, st.back().is_zero() ? 1 : 0);
                break;
            case EOp::add: {
                const Bitvec b = pop();
                st.back() = st.back().add(b);
                break;
            }
            case EOp::sub: {
                const Bitvec b = pop();
                st.back() = st.back().sub(b);
                break;
            }
            case EOp::mul: {
                const Bitvec b = pop();
                st.back() = st.back().mul(b);
                break;
            }
            case EOp::band: {
                const Bitvec b = pop();
                st.back() = st.back().band(b);
                break;
            }
            case EOp::bor: {
                const Bitvec b = pop();
                st.back() = st.back().bor(b);
                break;
            }
            case EOp::bxor: {
                const Bitvec b = pop();
                st.back() = st.back().bxor(b);
                break;
            }
            case EOp::shl: {
                const Bitvec b = pop();
                Bitvec& a = st.back();
                a = a.shl(static_cast<int>(std::min<std::uint64_t>(
                    b.to_u64(), static_cast<std::uint64_t>(a.width()))));
                break;
            }
            case EOp::shr: {
                const Bitvec b = pop();
                Bitvec& a = st.back();
                a = a.lshr(static_cast<int>(std::min<std::uint64_t>(
                    b.to_u64(), static_cast<std::uint64_t>(a.width()))));
                break;
            }
            case EOp::shr_as_shl: {
                const Bitvec b = pop();
                Bitvec& a = st.back();
                a = a.shl(static_cast<int>(std::min<std::uint64_t>(
                    b.to_u64(), static_cast<std::uint64_t>(a.width()))));
                break;
            }
            case EOp::eq: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().eq(b) ? 1 : 0);
                break;
            }
            case EOp::ne: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().eq(b) ? 0 : 1);
                break;
            }
            case EOp::ult: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().ult(b) ? 1 : 0);
                break;
            }
            case EOp::ule: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().ule(b) ? 1 : 0);
                break;
            }
            case EOp::ugt: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().ugt(b) ? 1 : 0);
                break;
            }
            case EOp::uge: {
                const Bitvec b = pop();
                st.back() = Bitvec(1, st.back().uge(b) ? 1 : 0);
                break;
            }
            case EOp::concat: {
                const Bitvec b = pop();
                st.back() = Bitvec::concat(st.back(), b);
                break;
            }
            case EOp::land: {
                const Bitvec b = pop();
                st.back() =
                    Bitvec(1, (!st.back().is_zero() && !b.is_zero()) ? 1 : 0);
                break;
            }
            case EOp::lor: {
                const Bitvec b = pop();
                st.back() =
                    Bitvec(1, (!st.back().is_zero() || !b.is_zero()) ? 1 : 0);
                break;
            }
            case EOp::select: {
                Bitvec on_false = pop();
                Bitvec on_true = pop();
                Bitvec& cond = st.back();
                cond = cond.is_zero() ? std::move(on_false) : std::move(on_true);
                break;
            }
            case EOp::slice:
                st.back() = st.back().slice(ip->a, ip->b);
                break;
            case EOp::cast:
                st.back() = st.back().resize(ip->a);
                break;
        }
    }
    Bitvec out = std::move(st.back());
    st.pop_back();
    return out;
}

void CompiledPipeline::eval_args(const Inst& in, const PacketState& state,
                                 const Frame& frame, std::vector<Bitvec>& out) {
    out.clear();
    out.reserve(in.args_len);
    const ExprRef* refs = cp_.arg_refs.data() + in.args_begin;
    for (std::uint32_t i = 0; i < in.args_len; ++i) {
        out.push_back(eval(refs[i], state, frame));
    }
}

void CompiledPipeline::run_ingress(PacketState& state) {
    run_control(cp_.ingress, state);
}

void CompiledPipeline::run_egress(PacketState& state) {
    run_control(cp_.egress, state);
}

void CompiledPipeline::run_control(const Routine& routine, PacketState& state) {
    Frame& frame = push_frame();
    frame.params.clear();
    reset_frame_locals(
        frame, std::span<const int>(cp_.width_pool.data() + routine.widths_begin,
                                    routine.widths_len));
    const std::size_t base_depth = depth_ - 1;
    const std::size_t base_ret = rstack_.size();
    try {
        exec(routine.entry_pc, state);
    } catch (...) {
        // A throw (IR-level width error) must not leak pool depth on the
        // long-lived executor -- same contract as Interpreter::FrameScope.
        depth_ = base_depth;
        rstack_.resize(base_ret);
        throw;
    }
    depth_ = base_depth;
    rstack_.resize(base_ret);
}

void CompiledPipeline::exec(std::uint32_t pc, PacketState& state) {
    const std::size_t base_depth = depth_;
    const std::size_t base_ret = rstack_.size();
    const Inst* code = cp_.code.data();
    Frame* fr = &frames_[depth_ - 1];
    for (;;) {
        const Inst& in = code[pc];
        switch (in.op) {
            case Op::halt:
                return;
            case Op::ret:
                --depth_;
                fr = &frames_[depth_ - 1];
                pc = rstack_.back();
                rstack_.pop_back();
                continue;
            case Op::exit_run:
                // `exit` stops the whole run: unwind every frame this exec
                // opened (the interpreter's per-statement exited check
                // returns through each nesting level; one unwind here is
                // observably identical).
                ++state.cycles;
                state.exited = true;
                depth_ = base_depth;
                rstack_.resize(base_ret);
                return;
            case Op::assign_field:
                ++state.cycles;
                state.store(slot_at(in.a, in.b), eval(in.expr, state, *fr));
                break;
            case Op::assign_local:
                ++state.cycles;
                fr->locals[static_cast<std::size_t>(in.a)] =
                    eval(in.expr, state, *fr);
                break;
            case Op::assign_slice: {
                ++state.cycles;
                Bitvec cur = state.load(slot_at(in.a, in.b));
                const Bitvec v = eval(in.expr, state, *fr);
                if (v.width() < in.c - in.d + 1) {
                    throw std::out_of_range(
                        "assign_slice: value narrower than slice");
                }
                cur.set_slice(in.c, in.d, v);
                state.store(slot_at(in.a, in.b), cur);
                break;
            }
            case Op::branch_false: {
                ++state.cycles;
                const Bitvec c = eval(in.expr, state, *fr);
                const bool taken = !c.is_zero();
                if (coverage_) {
                    coverage_->record(
                        coverage::Site::branch,
                        cov_salt_ ^ static_cast<std::uint32_t>(in.b),
                        taken ? 1 : 0);
                }
                if (!taken) {
                    pc = static_cast<std::uint32_t>(in.a);
                    continue;
                }
                break;
            }
            case Op::jump:
                pc = static_cast<std::uint32_t>(in.a);
                continue;
            case Op::apply_table: {
                state.cycles += 2;  // statement + match stage
                eval_args(in, state, *fr, keys_scratch_);
                bool hit = false;
                const ActionEntry& entry = TableSet::lookup_slot(
                    *slots_[static_cast<std::size_t>(in.a)], keys_scratch_, hit);
                if (coverage_) {
                    coverage_->record(coverage::Site::table,
                                      cov_salt_ ^ static_cast<std::uint64_t>(in.a),
                                      hit ? 1 : 0);
                }
                if (coverage_) {
                    coverage_->record(
                        coverage::Site::action,
                        cov_salt_ ^ static_cast<std::uint64_t>(entry.action_id));
                }
                const Routine& act =
                    cp_.actions[static_cast<std::size_t>(entry.action_id)];
                rstack_.push_back(pc + 1);
                fr = &push_frame();
                fr->params.assign(entry.args.begin(), entry.args.end());
                reset_frame_locals(
                    *fr, std::span<const int>(
                             cp_.width_pool.data() + act.widths_begin,
                             act.widths_len));
                pc = act.entry_pc;
                continue;
            }
            case Op::call_action: {
                ++state.cycles;
                eval_args(in, state, *fr, args_scratch_);
                if (coverage_) {
                    coverage_->record(coverage::Site::action,
                                      cov_salt_ ^ static_cast<std::uint64_t>(in.a));
                }
                const Routine& act = cp_.actions[static_cast<std::size_t>(in.a)];
                rstack_.push_back(pc + 1);
                fr = &push_frame();
                fr->params.assign(args_scratch_.begin(), args_scratch_.end());
                reset_frame_locals(
                    *fr, std::span<const int>(
                             cp_.width_pool.data() + act.widths_begin,
                             act.widths_len));
                pc = act.entry_pc;
                continue;
            }
            case Op::set_valid:
                ++state.cycles;
                state.set_valid(in.a, in.b != 0);
                break;
            case Op::ext_mark_to_drop:
                ++state.cycles;
                state.store(slot_at(in.a, in.b), Bitvec(9, p4::ir::kDropPort));
                break;
            case Op::ext_register_read: {
                ++state.cycles;
                const std::uint64_t idx =
                    in.expr.len ? eval(in.expr, state, *fr).to_u64() : 0;
                const Bitvec v = stateful_.register_read(in.c, idx);
                state.store(slot_at(in.a, in.b), v.resize(in.d));
                break;
            }
            case Op::ext_register_write: {
                ++state.cycles;
                const std::uint64_t idx =
                    in.expr.len ? eval(in.expr, state, *fr).to_u64() : 0;
                // stale_entry quirk: cells holding non-zero state are never
                // refreshed by the datapath (mirrors the interpreter hook).
                if (quirks_.stale_entry &&
                    !stateful_.register_read(in.a, idx).is_zero()) {
                    break;
                }
                stateful_.register_write(in.a, idx, eval(in.expr2, state, *fr));
                break;
            }
            case Op::ext_counter_count: {
                ++state.cycles;
                const std::uint64_t idx =
                    in.expr.len ? eval(in.expr, state, *fr).to_u64() : 0;
                stateful_.counter_count(in.a, idx,
                                        state.u64(prog_.f_packet_length));
                break;
            }
            case Op::ext_meter_execute: {
                ++state.cycles;
                const std::uint64_t idx =
                    in.expr.len ? eval(in.expr, state, *fr).to_u64() : 0;
                const MeterColor color = stateful_.meter_execute(
                    in.c, idx, state.meta.rx_time_ns,
                    state.u64(prog_.f_packet_length));
                state.store(slot_at(in.a, in.b),
                            Bitvec(in.d, static_cast<std::uint64_t>(color)));
                break;
            }
            case Op::ext_hash: {
                ++state.cycles;
                bytes_scratch_.clear();
                const ExprRef* refs = cp_.arg_refs.data() + in.args_begin;
                for (std::uint32_t i = 0; i < in.args_len; ++i) {
                    const Bitvec v = eval(refs[i], state, *fr);
                    const std::size_t old = bytes_scratch_.size();
                    bytes_scratch_.resize(
                        old + static_cast<std::size_t>((v.width() + 7) / 8));
                    v.write_bytes(
                        std::span<std::uint8_t>(bytes_scratch_).subspan(old));
                }
                std::uint32_t h = packet::crc32(bytes_scratch_);
                // hash_collision_misdirect quirk: keep only N low-order bits.
                if (quirks_.hash_collision_misdirect > 0 &&
                    quirks_.hash_collision_misdirect < 32) {
                    h &= (1u << quirks_.hash_collision_misdirect) - 1u;
                }
                state.store(slot_at(in.a, in.b), Bitvec(32, h).resize(in.d));
                break;
            }
            case Op::ext_checksum:
                ++state.cycles;
                checksum_update_field(prog_, state, in.a, in.b, bytes_scratch_);
                break;
            case Op::ext_nop:
                ++state.cycles;
                break;
            default:
                throw std::logic_error("compiled control: unexpected opcode");
        }
        ++pc;
    }
}

ParserVerdict CompiledPipeline::run_parser(const packet::Packet& pkt,
                                           PacketState& state) {
    cursor_ = 0;
    total_bits_ = pkt.size() * 8;
    visited_ = 0;
    extracts_ = 0;
    current_ = cp_.start_state;
    if (current_ == p4::ir::kAccept) return pfinish(pkt, state, ParserVerdict::accept);
    if (current_ == p4::ir::kReject) return pfinish(pkt, state, ParserVerdict::reject);
    if (current_ < 0 ||
        static_cast<std::size_t>(current_) >= prog_.parser_states.size()) {
        throw std::out_of_range("compiled parser: invalid start state");
    }
    std::uint32_t pc = cp_.parser_pc;
    const Inst* code = cp_.code.data();
    for (;;) {
        const Inst& in = code[pc];
        switch (in.op) {
            case Op::pstate:
                current_ = in.a;
                if (++visited_ > ParserEngine::kMaxStates) {
                    return pfinish(pkt, state, ParserVerdict::error_loop);
                }
                state.cycles += 1;
                break;
            case Op::pextract: {
                if (in.c > 0 && extracts_ >= in.c) {
                    // Hardware parser out of stages: silently stop parsing.
                    return pfinish(pkt, state, ParserVerdict::accept);
                }
                if (cursor_ + static_cast<std::size_t>(in.b) > total_bits_) {
                    return pfinish(pkt, state, ParserVerdict::error_truncated);
                }
                const HeaderSpan& span = layout_.headers[static_cast<std::size_t>(in.a)];
                std::uint64_t* const words = state.words.data();
                if (span.streamable) {
                    // Contiguous layout: stream the fields off the wire in
                    // one pass (the whole header was bounds-checked above),
                    // straight into their words.  A wide field arrives most
                    // significant bits first: its partial top word, then
                    // whole words down to word 0.
                    BitReader rd{pkt.bytes().data(), pkt.size(), cursor_};
                    for (std::uint32_t i = span.slot_begin; i < span.slot_end; ++i) {
                        const FieldSlot fs = layout_.slots[i];
                        if (fs.width <= 64) {
                            words[fs.word] = rd.read(fs.width) & low_mask(fs.width);
                            continue;
                        }
                        std::uint32_t w = fs.word + slot_words(fs.width);
                        if (const int top = fs.width & 63) {
                            words[--w] = rd.read(top) & low_mask(top);
                        }
                        while (w > fs.word) words[--w] = rd.read(64);
                    }
                } else {
                    const auto& hdr = prog_.headers[static_cast<std::size_t>(in.a)];
                    for (std::size_t f = 0; f < hdr.fields.size(); ++f) {
                        const auto& field = hdr.fields[f];
                        state.store(layout_.slots[span.slot_begin + f],
                                    pkt.extract_bits(
                                        cursor_ + static_cast<std::size_t>(field.offset),
                                        field.width));
                    }
                }
                state.set_valid(in.a, true);
                cursor_ += static_cast<std::size_t>(in.b);
                ++extracts_;
                state.cycles += 1;
                break;
            }
            case Op::padvance:
                if (cursor_ + static_cast<std::size_t>(in.a) > total_bits_) {
                    return pfinish(pkt, state, ParserVerdict::error_truncated);
                }
                cursor_ += static_cast<std::size_t>(in.a);
                break;
            case Op::passign:
                state.store(slot_at(in.a, in.b),
                            eval(in.expr, state, empty_frame_).resize(in.c));
                break;
            case Op::ptrans:
                if (coverage_) {
                    coverage_->record(coverage::Site::parser_edge,
                                      cov_salt_ ^ static_cast<std::uint64_t>(current_),
                                      static_cast<std::uint64_t>(in.a));
                }
                current_ = in.a;
                if (in.a == p4::ir::kAccept) {
                    return pfinish(pkt, state, ParserVerdict::accept);
                }
                if (in.a == p4::ir::kReject) {
                    return pfinish(pkt, state, ParserVerdict::reject);
                }
                pc = static_cast<std::uint32_t>(in.b);
                continue;
            case Op::pselect_keys: {
                pkeys_.clear();
                pkeys_.reserve(in.args_len);
                const ExprRef* refs = cp_.arg_refs.data() + in.args_begin;
                for (std::uint32_t i = 0; i < in.args_len; ++i) {
                    pkeys_.push_back(eval(refs[i], state, empty_frame_));
                }
                break;
            }
            case Op::pcase: {
                bool match = true;
                for (std::int32_t i = in.a; i < in.b && match; ++i) {
                    const CaseSet& cs = cp_.case_sets[static_cast<std::size_t>(i)];
                    const Bitvec& key = pkeys_[static_cast<std::size_t>(cs.key)];
                    if (key.width() == cs.mask.width() && key.width() <= 64) {
                        match = (key.to_u64() & cs.mask.to_u64()) ==
                                cs.value_masked.to_u64();
                    } else {
                        match = key.band(cs.mask).eq(cs.value_masked);  // may throw
                    }
                }
                if (!match) break;  // fall through to the next case
                if (coverage_) {
                    coverage_->record(coverage::Site::parser_edge,
                                      cov_salt_ ^ static_cast<std::uint64_t>(current_),
                                      static_cast<std::uint64_t>(in.c));
                }
                current_ = in.c;
                if (in.c == p4::ir::kAccept) {
                    return pfinish(pkt, state, ParserVerdict::accept);
                }
                if (in.c == p4::ir::kReject) {
                    return pfinish(pkt, state, ParserVerdict::reject);
                }
                pc = static_cast<std::uint32_t>(in.d);
                continue;
            }
            case Op::pselect_fail:
                // No matching case rejects, per P4-16.
                if (coverage_) {
                    coverage_->record(
                        coverage::Site::parser_edge,
                        cov_salt_ ^ static_cast<std::uint64_t>(current_),
                        static_cast<std::uint64_t>(p4::ir::kReject));
                }
                current_ = p4::ir::kReject;
                return pfinish(pkt, state, ParserVerdict::reject);
            default:
                throw std::logic_error("compiled parser: unexpected opcode");
        }
        ++pc;
    }
}

ParserVerdict CompiledPipeline::pfinish(const packet::Packet& pkt,
                                        PacketState& state, ParserVerdict verdict) {
    if (coverage_) {
        // Terminal site: the state the machine stopped in plus the verdict,
        // so depth-limited/truncated exits are distinct edges.
        coverage_->record(coverage::Site::parser_finish,
                          cov_salt_ ^ static_cast<std::uint64_t>(current_),
                          static_cast<std::uint64_t>(verdict));
    }
    // Unparsed remainder becomes the payload (from the next whole byte).
    const std::size_t byte_cursor = (cursor_ + 7) / 8;
    if (byte_cursor < pkt.size()) {
        const auto bytes = pkt.bytes();
        state.payload.assign(bytes.begin() + static_cast<long>(byte_cursor),
                             bytes.end());
    }
    if (verdict != ParserVerdict::accept && quirks_.reject_as_accept) {
        // The vendor parser has no reject path: the packet proceeds with
        // whatever was extracted before the reject/error.
        state.parser_verdict = ParserVerdict::accept;
        return ParserVerdict::accept;
    }
    state.parser_verdict = verdict;
    return verdict;
}

packet::Packet CompiledPipeline::deparse(const PacketState& state) const {
    std::size_t total_bits = 0;
    bool stream = true;
    for (const int h : prog_.deparse_order) {
        if (!state.header_valid(h)) continue;
        total_bits += static_cast<std::size_t>(
            prog_.headers[static_cast<std::size_t>(h)].size_bits);
        stream = stream && layout_.headers[static_cast<std::size_t>(h)].streamable;
    }
    if (!stream) return ndb::dataplane::deparse(prog_, state);

    const std::size_t header_bytes = (total_bits + 7) / 8;
    std::vector<std::uint8_t> buf(header_bytes + state.payload.size(), 0);
    BitWriter wr{buf.data()};
    const std::uint64_t* const words = state.words.data();
    for (const int h : prog_.deparse_order) {
        if (!state.header_valid(h)) continue;
        const HeaderSpan& span = layout_.headers[static_cast<std::size_t>(h)];
        for (std::uint32_t i = span.slot_begin; i < span.slot_end; ++i) {
            const FieldSlot fs = layout_.slots[i];
            if (fs.width <= 64) {
                wr.push(words[fs.word], fs.width);
                continue;
            }
            // Most significant bits first: the partial top word, then whole
            // words down to word 0 (bits above the width are zero).
            std::uint32_t w = fs.word + slot_words(fs.width);
            if (const int top = fs.width & 63) wr.push(words[--w], top);
            while (w > fs.word) wr.push(words[--w], 64);
        }
    }
    wr.flush();
    std::copy(state.payload.begin(), state.payload.end(),
              buf.begin() + static_cast<long>(header_bytes));
    packet::Packet out(std::move(buf));
    out.meta = state.meta;
    return out;
}

}  // namespace ndb::dataplane

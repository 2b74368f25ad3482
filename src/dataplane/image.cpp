#include "dataplane/image.h"

#include <pthread.h>

#include <mutex>

#include "dataplane/compile.h"

namespace ndb::dataplane {

namespace {

// Does any expression in the program read the ingress timestamp?  The
// expiry_off_by_one quirk must only perturb programs that age state off
// the virtual clock: standard metadata is folded into every tap digest,
// so an ungated rewrite would make every catalogue program diverge at the
// parser tap and drown the real state-bug landscape.
bool expr_reads_timestamp(const p4::ir::Expr& e, const p4::ir::FieldRef& ts) {
    if (e.kind == p4::ir::Expr::Kind::field && e.fref == ts) return true;
    if (e.a && expr_reads_timestamp(*e.a, ts)) return true;
    if (e.b && expr_reads_timestamp(*e.b, ts)) return true;
    if (e.c && expr_reads_timestamp(*e.c, ts)) return true;
    return false;
}

bool body_reads_timestamp(const std::vector<p4::ir::StmtPtr>& body,
                          const p4::ir::FieldRef& ts) {
    for (const auto& stmt : body) {
        if (stmt->value && expr_reads_timestamp(*stmt->value, ts)) return true;
        if (stmt->cond && expr_reads_timestamp(*stmt->cond, ts)) return true;
        if (stmt->index_expr && expr_reads_timestamp(*stmt->index_expr, ts)) {
            return true;
        }
        for (const auto& arg : stmt->action_args) {
            if (arg && expr_reads_timestamp(*arg, ts)) return true;
        }
        for (const auto& input : stmt->hash_inputs) {
            if (input && expr_reads_timestamp(*input, ts)) return true;
        }
        if (body_reads_timestamp(stmt->then_body, ts)) return true;
        if (body_reads_timestamp(stmt->else_body, ts)) return true;
    }
    return false;
}

bool program_reads_timestamp(const p4::ir::Program& prog) {
    const p4::ir::FieldRef ts = prog.f_timestamp;
    if (!ts.valid()) return false;
    if (body_reads_timestamp(prog.ingress.body, ts)) return true;
    if (prog.egress && body_reads_timestamp(prog.egress->body, ts)) return true;
    for (const auto& action : prog.actions) {
        if (body_reads_timestamp(action.body, ts)) return true;
    }
    for (const auto& st : prog.parser_states) {
        for (const auto& op : st.ops) {
            if (op.value && expr_reads_timestamp(*op.value, ts)) return true;
        }
        for (const auto& key : st.transition.keys) {
            if (key && expr_reads_timestamp(*key, ts)) return true;
        }
    }
    return false;
}

// The process-wide image cache.  Entries are bucketed by program address;
// an entry matches only when its weak owner shares the requester's control
// block, so a dead program's entry (expired owner) is a miss even when a
// new program reuses its address.  Expired entries are pruned on insert.
class ImageCache {
public:
    static ImageCache& instance() {
        static ImageCache cache;
        return cache;
    }

    std::shared_ptr<const Image> get(
        const std::shared_ptr<const p4::ir::Program>& prog, const Quirks& quirks) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (auto hit = find(prog, quirks)) return hit;
        }
        // Build outside the lock: compile() is the whole cost of a miss and
        // must not serialize loads of unrelated programs.  Threads racing to
        // build the same key re-check below; the first insert wins and the
        // others return it, so every caller still shares one image.
        auto built = std::make_shared<const Image>(prog, quirks);
        std::lock_guard<std::mutex> lock(mu_);
        if (auto hit = find(prog, quirks)) return hit;
        for (auto it = entries_.begin(); it != entries_.end();) {
            it = it->second->source.expired() ? entries_.erase(it) : std::next(it);
        }
        entries_.emplace(prog.get(), built);
        return built;
    }

private:
    // FabricEngine forks worker processes.  A fork while another thread
    // holds mu_ would hand the child a mutex nobody will ever unlock, so
    // the atfork handlers take mu_ across every fork() and release it on
    // both sides: the child always starts with the cache unlocked (and
    // with a consistent copy of it, which it may keep using).
    ImageCache() {
        pthread_atfork([] { instance().mu_.lock(); },
                       [] { instance().mu_.unlock(); },
                       [] { instance().mu_.unlock(); });
    }

    std::shared_ptr<const Image> find(
        const std::shared_ptr<const p4::ir::Program>& prog,
        const Quirks& quirks) const {
        const auto [lo, hi] = entries_.equal_range(prog.get());
        for (auto it = lo; it != hi; ++it) {
            const Image& img = *it->second;
            const bool same_owner =
                !img.source.owner_before(prog) && !prog.owner_before(img.source);
            if (same_owner && img.quirks == quirks) return it->second;
        }
        return nullptr;
    }

    std::mutex mu_;
    std::unordered_multimap<const p4::ir::Program*, std::shared_ptr<const Image>>
        entries_;
};

}  // namespace

Image::Image(const std::shared_ptr<const p4::ir::Program>& prog, const Quirks& q)
    : program(*prog),
      source(prog),
      quirks(q),
      code(compile(*prog, q)),
      layout(std::make_shared<const StateLayout>(*prog, q.metadata_clobber)),
      reads_timestamp(program_reads_timestamp(*prog)),
      branch_ids(p4::ir::number_branches(*prog)) {}

std::shared_ptr<const Image> image_for(
    const std::shared_ptr<const p4::ir::Program>& prog, const Quirks& quirks) {
    return ImageCache::instance().get(prog, quirks);
}

}  // namespace ndb::dataplane

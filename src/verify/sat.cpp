#include "verify/sat.h"

#include <algorithm>
#include <cmath>

namespace ndb::verify {

int SatSolver::new_var() {
    const int v = static_cast<int>(assign_.size());
    assign_.push_back(kUndef);
    level_.push_back(0);
    reason_.push_back(-1);
    activity_.push_back(0.0);
    watchers_.emplace_back();
    watchers_.emplace_back();
    return v;
}

void SatSolver::add_clause(std::vector<Lit> lits) {
    if (unsat_) return;
    // Normalize: drop duplicate literals; a clause with l and ~l is a tautology.
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
        if (lits[i] == neg(lits[i + 1])) return;  // tautology
    }
    // Remove literals already false at level 0; satisfied clauses are dropped.
    std::vector<Lit> pruned;
    for (const Lit l : lits) {
        const auto v = lit_value(l);
        if (v == kTrue && level_[static_cast<std::size_t>(lit_var(l))] == 0) return;
        if (v == kFalse && level_[static_cast<std::size_t>(lit_var(l))] == 0) continue;
        pruned.push_back(l);
    }
    if (pruned.empty()) {
        unsat_ = true;
        return;
    }
    if (pruned.size() == 1) {
        if (lit_value(pruned[0]) == kUndef) {
            enqueue(pruned[0], -1);
            if (propagate() >= 0) unsat_ = true;
        } else if (lit_value(pruned[0]) == kFalse) {
            unsat_ = true;
        }
        return;
    }
    const int ci = static_cast<int>(clauses_.size());
    clauses_.push_back({std::move(pruned), false});
    watchers_[static_cast<std::size_t>(clauses_[static_cast<std::size_t>(ci)].lits[0])]
        .push_back(ci);
    watchers_[static_cast<std::size_t>(clauses_[static_cast<std::size_t>(ci)].lits[1])]
        .push_back(ci);
}

void SatSolver::enqueue(Lit l, int reason) {
    const auto var = static_cast<std::size_t>(lit_var(l));
    assign_[var] = lit_sign(l) ? kFalse : kTrue;
    level_[var] = static_cast<int>(trail_lim_.size());
    reason_[var] = reason;
    trail_.push_back(l);
}

int SatSolver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        // Clauses watching ~p must find a new watch or propagate/conflict.
        const Lit false_lit = neg(p);
        auto& watch_list = watchers_[static_cast<std::size_t>(false_lit)];
        std::size_t keep = 0;
        for (std::size_t i = 0; i < watch_list.size(); ++i) {
            const int ci = watch_list[i];
            auto& lits = clauses_[static_cast<std::size_t>(ci)].lits;
            // Ensure the false literal is in slot 1.
            if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
            if (lit_value(lits[0]) == kTrue) {
                watch_list[keep++] = ci;  // clause satisfied; keep watch
                continue;
            }
            // Search for a replacement watch.
            bool moved = false;
            for (std::size_t k = 2; k < lits.size(); ++k) {
                if (lit_value(lits[k]) != kFalse) {
                    std::swap(lits[1], lits[k]);
                    watchers_[static_cast<std::size_t>(lits[1])].push_back(ci);
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            // No replacement: clause is unit or conflicting.
            watch_list[keep++] = ci;
            if (lit_value(lits[0]) == kFalse) {
                // Conflict: restore remaining watches and report.
                for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
                    watch_list[keep++] = watch_list[j];
                }
                watch_list.resize(keep);
                qhead_ = trail_.size();
                return ci;
            }
            enqueue(lits[0], ci);
        }
        watch_list.resize(keep);
    }
    return -1;
}

void SatSolver::bump_var(int var) {
    activity_[static_cast<std::size_t>(var)] += var_inc_;
    if (activity_[static_cast<std::size_t>(var)] > 1e100) {
        for (auto& a : activity_) a *= 1e-100;
        var_inc_ *= 1e-100;
    }
}

void SatSolver::decay_activity() { var_inc_ /= 0.95; }

void SatSolver::analyze(int conflict, std::vector<Lit>& learned,
                        int& backtrack_level) {
    learned.clear();
    learned.push_back(0);  // slot for the asserting literal
    std::vector<bool> seen(assign_.size(), false);
    int counter = 0;
    Lit p = -1;
    std::size_t index = trail_.size();
    const int current_level = static_cast<int>(trail_lim_.size());

    int ci = conflict;
    do {
        const auto& lits = clauses_[static_cast<std::size_t>(ci)].lits;
        for (const Lit q : lits) {
            if (q == p) continue;
            const auto v = static_cast<std::size_t>(lit_var(q));
            if (seen[v] || level_[v] == 0) continue;
            seen[v] = true;
            bump_var(static_cast<int>(v));
            if (level_[v] >= current_level) {
                ++counter;
            } else {
                learned.push_back(q);
            }
        }
        // Walk the trail backwards to the next marked literal.
        while (!seen[static_cast<std::size_t>(lit_var(trail_[index - 1]))]) --index;
        p = trail_[--index];
        seen[static_cast<std::size_t>(lit_var(p))] = false;
        ci = reason_[static_cast<std::size_t>(lit_var(p))];
        --counter;
    } while (counter > 0);
    learned[0] = neg(p);

    // Backtrack level: the highest level among the other literals.
    backtrack_level = 0;
    for (std::size_t i = 1; i < learned.size(); ++i) {
        backtrack_level =
            std::max(backtrack_level,
                     level_[static_cast<std::size_t>(lit_var(learned[i]))]);
    }
}

void SatSolver::backtrack(int target_level) {
    if (static_cast<int>(trail_lim_.size()) <= target_level) return;
    const std::size_t bound = trail_lim_[static_cast<std::size_t>(target_level)];
    while (trail_.size() > bound) {
        const auto v = static_cast<std::size_t>(lit_var(trail_.back()));
        assign_[v] = kUndef;
        reason_[v] = -1;
        trail_.pop_back();
    }
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

Lit SatSolver::pick_branch() {
    int best = -1;
    double best_act = -1.0;
    for (std::size_t v = 0; v < assign_.size(); ++v) {
        if (assign_[v] == kUndef && activity_[v] > best_act) {
            best_act = activity_[v];
            best = static_cast<int>(v);
        }
    }
    if (best < 0) return -1;
    return mk_lit(best, true);  // negative-first polarity (MiniSat default)
}

SatResult SatSolver::solve(std::uint64_t max_conflicts) {
    if (unsat_) return SatResult::unsat;
    if (propagate() >= 0) {
        unsat_ = true;
        return SatResult::unsat;
    }
    std::uint64_t restart_limit = 128;
    std::uint64_t conflicts_since_restart = 0;

    for (;;) {
        const int conflict = propagate();
        if (conflict >= 0) {
            ++stats_conflicts_;
            ++conflicts_since_restart;
            if (max_conflicts && stats_conflicts_ > max_conflicts) {
                return SatResult::unknown;
            }
            if (trail_lim_.empty()) {
                unsat_ = true;
                return SatResult::unsat;
            }
            std::vector<Lit> learned;
            int back_level = 0;
            analyze(conflict, learned, back_level);
            backtrack(back_level);
            if (learned.size() == 1) {
                enqueue(learned[0], -1);
            } else {
                const int ci = static_cast<int>(clauses_.size());
                clauses_.push_back({learned, true});
                auto& lits = clauses_[static_cast<std::size_t>(ci)].lits;
                // Watch the asserting literal and one literal from back_level.
                std::size_t second = 1;
                for (std::size_t i = 1; i < lits.size(); ++i) {
                    if (level_[static_cast<std::size_t>(lit_var(lits[i]))] == back_level) {
                        second = i;
                        break;
                    }
                }
                std::swap(lits[1], lits[second]);
                watchers_[static_cast<std::size_t>(lits[0])].push_back(ci);
                watchers_[static_cast<std::size_t>(lits[1])].push_back(ci);
                enqueue(lits[0], ci);
            }
            decay_activity();
            if (conflicts_since_restart >= restart_limit) {
                conflicts_since_restart = 0;
                restart_limit = restart_limit * 3 / 2;
                backtrack(0);
            }
            continue;
        }
        const Lit branch = pick_branch();
        if (branch < 0) return SatResult::sat;  // fully assigned
        ++stats_decisions_;
        trail_lim_.push_back(trail_.size());
        enqueue(branch, -1);
    }
}

bool SatSolver::value(int var) const {
    return assign_.at(static_cast<std::size_t>(var)) == kTrue;
}

}  // namespace ndb::verify

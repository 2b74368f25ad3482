#include "dataplane/stateful.h"

#include <algorithm>
#include <bit>

namespace ndb::dataplane {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// kFnvPrime^8 (mod 2^64): folding a zero byte only multiplies by the
// prime, so a zero word folds in one multiply.  Zero words are ~97% of
// what info() folds on the perfbench clean_sweep workload: most cells of a
// snapshot were never written.
constexpr std::uint64_t kFnvPrime8 = [] {
    std::uint64_t p = 1;
    for (int i = 0; i < 8; ++i) p *= kFnvPrime;
    return p;
}();

// FNV-1a over the word's eight bytes, low byte first.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
    if (v == 0) return h * kFnvPrime8;
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

}  // namespace

void MeterCell::configure(double committed_rate, std::uint64_t committed_burst,
                          double excess_rate, std::uint64_t excess_burst) {
    committed_rate_ = committed_rate;
    committed_burst_ = committed_burst;
    excess_rate_ = excess_rate;
    excess_burst_ = excess_burst;
    committed_tokens_ = static_cast<double>(committed_burst);
    excess_tokens_ = static_cast<double>(excess_burst);
    last_refill_ns_ = 0;
    configured_ = true;
}

std::uint64_t MeterCell::fold_config(std::uint64_t h) const {
    h = fnv(h, configured_ ? 1 : 0);
    if (!configured_) return h;
    h = fnv(h, std::bit_cast<std::uint64_t>(committed_rate_));
    h = fnv(h, committed_burst_);
    h = fnv(h, std::bit_cast<std::uint64_t>(excess_rate_));
    h = fnv(h, excess_burst_);
    return h;
}

void MeterCell::refill(std::uint64_t now_ns) {
    if (now_ns <= last_refill_ns_) return;
    const double dt = static_cast<double>(now_ns - last_refill_ns_) * 1e-9;
    committed_tokens_ = std::min(static_cast<double>(committed_burst_),
                                 committed_tokens_ + committed_rate_ * dt);
    excess_tokens_ = std::min(static_cast<double>(excess_burst_),
                              excess_tokens_ + excess_rate_ * dt);
    last_refill_ns_ = now_ns;
}

MeterColor MeterCell::execute(std::uint64_t now_ns, std::uint64_t bytes) {
    refill(now_ns);
    const double b = static_cast<double>(bytes);
    if (committed_tokens_ >= b) {
        committed_tokens_ -= b;
        return MeterColor::green;
    }
    if (excess_tokens_ >= b) {
        excess_tokens_ -= b;
        return MeterColor::yellow;
    }
    return MeterColor::red;
}

StatefulSet::StatefulSet(const p4::ir::Program& prog) {
    externs_.resize(prog.externs.size());
    for (const auto& e : prog.externs) {
        auto& slot = externs_[static_cast<std::size_t>(e.id)];
        slot.kind = e.kind;
        slot.name = e.name;
        slot.elem_width = e.elem_width;
        const auto n = static_cast<std::size_t>(e.array_size);
        switch (e.kind) {
            case p4::ir::ExternDecl::Kind::reg:
                slot.cells.assign(n, Bitvec(e.elem_width));
                break;
            case p4::ir::ExternDecl::Kind::counter:
                slot.packets.assign(n, 0);
                slot.bytes.assign(n, 0);
                break;
            case p4::ir::ExternDecl::Kind::meter:
                slot.meters.assign(n, MeterCell{});
                break;
        }
    }
}

Bitvec StatefulSet::register_read(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.cells.size()) return Bitvec(s.elem_width);  // OOB reads 0
    return s.cells[index];
}

void StatefulSet::register_write(int extern_id, std::uint64_t index,
                                 const Bitvec& value) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.cells.size()) return;  // OOB writes are dropped
    s.cells[index] = value.resize(s.elem_width);
}

void StatefulSet::counter_count(int extern_id, std::uint64_t index,
                                std::uint64_t bytes) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.packets.size()) return;
    ++s.packets[index];
    s.bytes[index] += bytes;
}

std::uint64_t StatefulSet::counter_packets(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    return index < s.packets.size() ? s.packets[index] : 0;
}

std::uint64_t StatefulSet::counter_bytes(int extern_id, std::uint64_t index) const {
    const auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    return index < s.bytes.size() ? s.bytes[index] : 0;
}

void StatefulSet::meter_configure(int extern_id, std::uint64_t index,
                                  double committed_rate, std::uint64_t committed_burst,
                                  double excess_rate, std::uint64_t excess_burst) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.meters.size()) return;
    s.meters[index].configure(committed_rate, committed_burst, excess_rate,
                              excess_burst);
}

MeterColor StatefulSet::meter_execute(int extern_id, std::uint64_t index,
                                      std::uint64_t now_ns, std::uint64_t bytes) {
    auto& s = externs_.at(static_cast<std::size_t>(extern_id));
    if (index >= s.meters.size()) return MeterColor::red;
    return s.meters[index].execute(now_ns, bytes);
}

std::vector<StatefulSet::Info> StatefulSet::info() const {
    std::vector<Info> out;
    out.reserve(externs_.size());
    for (const auto& s : externs_) {
        Info inf;
        inf.name = s.name;
        std::uint64_t h = kFnvOffset;
        switch (s.kind) {
            case p4::ir::ExternDecl::Kind::reg:
                inf.kind = "register";
                inf.cells = s.cells.size();
                for (const auto& cell : s.cells) {
                    for (const std::uint64_t w : cell.word_span()) h = fnv(h, w);
                }
                break;
            case p4::ir::ExternDecl::Kind::counter:
                inf.kind = "counter";
                inf.cells = s.packets.size();
                for (std::size_t i = 0; i < s.packets.size(); ++i) {
                    h = fnv(h, s.packets[i]);
                    h = fnv(h, s.bytes[i]);
                }
                break;
            case p4::ir::ExternDecl::Kind::meter:
                inf.kind = "meter";
                inf.cells = s.meters.size();
                for (const auto& m : s.meters) {
                    h = m.fold_config(h);
                    if (!m.configured()) ++inf.unconfigured_meters;
                }
                break;
        }
        inf.state_hash = h;
        out.push_back(std::move(inf));
    }
    return out;
}

void StatefulSet::reset_state() {
    for (auto& s : externs_) {
        for (auto& c : s.cells) c = Bitvec(s.elem_width);
        std::fill(s.packets.begin(), s.packets.end(), 0);
        std::fill(s.bytes.begin(), s.bytes.end(), 0);
        for (auto& m : s.meters) m = MeterCell{};
    }
}

}  // namespace ndb::dataplane

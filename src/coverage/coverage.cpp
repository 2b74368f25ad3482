#include "coverage/coverage.h"

#include <bit>

namespace ndb::coverage {

std::size_t CoverageMap::edges_covered() const {
    std::size_t n = 0;
    for (const std::uint64_t word : lit_) n += std::popcount(word);
    return n;
}

std::size_t CoverageMap::merge_new_from(const SlotHits& fresh) {
    std::size_t new_slots = 0;
    for (const SlotHit& h : fresh) {
        if (h.count == 0) continue;
        const std::uint32_t s = h.slot & (kSlots - 1);
        if (counts_[s] == 0) ++new_slots;
        counts_[s] += h.count;
        lit_[s / 64] |= std::uint64_t{1} << (s % 64);
    }
    return new_slots;
}

void CoverageMap::drain_into(SlotHits& out) {
    for (std::size_t w = 0; w < lit_.size(); ++w) {
        for (std::uint64_t bits = lit_[w]; bits != 0; bits &= bits - 1) {
            const std::size_t s = w * 64 + std::countr_zero(bits);
            out.push_back({static_cast<std::uint32_t>(s), counts_[s]});
            counts_[s] = 0;
        }
        lit_[w] = 0;
    }
}

}  // namespace ndb::coverage

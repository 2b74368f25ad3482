#include "dataplane/digest.h"

#include <bit>

namespace ndb::dataplane {

namespace {

// MurmurHash3 x64 body step.  The word pre-mix does not depend on `h`, so
// consecutive words overlap in the pipeline; the dependent chain through
// `h` is one xor, one rotate and one multiply-add per word.
inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) {
    w *= 0x87c37b91114253d5ull;
    w = std::rotl(w, 31);
    w *= 0x4cf5ad432745937full;
    h ^= w;
    h = std::rotl(h, 27);
    return h * 5 + 0x52dce729;
}

// MurmurHash3 fmix64: full avalanche of the running state.
inline std::uint64_t finalize(std::uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

}  // namespace

std::uint64_t hash_packet_state(const p4::ir::Program& prog,
                                const PacketState& state) {
    // Each header's fields are one contiguous word span of the flat state,
    // in Bitvec::word_span() order, so the word stream is the same as
    // hashing field by field.
    const std::vector<HeaderSpan>& spans = state.layout->headers;
    const std::uint64_t* words = state.words.data();
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const bool valid = (state.valid[i / 64] >> (i % 64)) & 1;
        h = mix_word(h, valid ? 1 : 0);
        const HeaderSpan& span = spans[i];
        if (!valid && !span.is_metadata) continue;
        for (std::uint32_t w = span.word_begin; w < span.word_end; ++w) {
            h = mix_word(h, words[w]);
        }
    }
    return finalize(h);
}

}  // namespace ndb::dataplane

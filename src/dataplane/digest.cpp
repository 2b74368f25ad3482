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
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < prog.headers.size(); ++i) {
        const auto& inst = state.headers[i];
        h = mix_word(h, inst.valid ? 1 : 0);
        if (!inst.valid && !prog.headers[i].is_metadata) continue;
        for (const auto& field : inst.fields) {
            for (const std::uint64_t w : field.word_span()) h = mix_word(h, w);
        }
    }
    return finalize(h);
}

}  // namespace ndb::dataplane

// Streaming per-stage state digests.
//
// hash_packet_state() digests a live PacketState in place: each header's
// valid flag, then every field's little-endian value words
// (Bitvec::word_span()), in order -- which is the header's word span of the
// flat state (state.h), hashed in one loop.  Fields of an invalid non-metadata
// header are skipped, mirroring FaultLocalizer's comparison.  Words go
// through a MurmurHash3-style step and the result through fmix64, so a
// difference in any bit, high or low, avalanches across the digest; each
// step is a bijection of the running state, so two states of one program
// that differ in a single word never share a digest.
//
// Digests are only compared for equality, never printed, so reports do not
// depend on the algorithm.  Timing (cycles) is deliberately excluded:
// quirked paths may legitimately cost different cycle counts without being
// behaviourally wrong.
#pragma once

#include <cstdint>

#include "dataplane/state.h"
#include "p4/ir.h"

namespace ndb::dataplane {

// Digest value reported for a stage the packet never reached.
inline constexpr std::uint64_t kStageNotReachedHash = 0x9e3779b97f4a7c15ull;

std::uint64_t hash_packet_state(const p4::ir::Program& prog,
                                const PacketState& state);

}  // namespace ndb::dataplane

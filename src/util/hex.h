// Hex encoding helpers shared by diagnostics and reports.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ndb::util {

// "deadbeef" (lowercase, no separators).
std::string to_hex(std::span<const std::uint8_t> bytes);

// Accepts optional "0x" prefix, whitespace, ':' and '_' separators.
// Throws std::invalid_argument on odd digit counts or junk characters.
std::vector<std::uint8_t> from_hex(std::string_view text);

// Classic 16-bytes-per-row dump with offsets and ASCII gutter.
std::string hex_dump(std::span<const std::uint8_t> bytes);

}  // namespace ndb::util

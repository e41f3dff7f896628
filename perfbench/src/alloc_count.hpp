// Process-wide heap allocation counter (global operator new).
#pragma once

#include <cstdint>

namespace perfbench {

/// operator new calls since process start.
[[nodiscard]] std::uint64_t allocation_count() noexcept;

}  // namespace perfbench

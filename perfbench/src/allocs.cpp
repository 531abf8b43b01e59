// The one translation unit that replaces operator new with the counting
// version (core/counting_allocator.h must be included exactly once).
#include "core/counting_allocator.h"
#include "harness.h"

namespace perfbench {

std::uint64_t heap_allocs() { return bswp::alloc_count(); }

}  // namespace perfbench

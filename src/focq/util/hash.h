// Hash helper for composite keys (AST nodes, sphere invariants).
#ifndef FOCQ_UTIL_HASH_H_
#define FOCQ_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace focq {

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constants).
inline void HashCombine(std::size_t* seed, std::size_t value) {
  *seed ^= value + 0x9e3779b97f4a7c15ULL + (*seed << 6) + (*seed >> 2);
}

}  // namespace focq

#endif  // FOCQ_UTIL_HASH_H_

// Common foundation types and invariant-checking macros used across Chaos.
//
// The library follows a no-exceptions policy for control flow: fallible
// operations return std::optional / status booleans, and broken invariants
// abort via CHECK. This mirrors the style used by comparable systems code.
#ifndef CHAOS_UTIL_COMMON_H_
#define CHAOS_UTIL_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace chaos {

// Aborts after printing `msg` with source location. Used by the CHECK macros.
[[noreturn]] void CheckFailure(const char* file, int line, const char* expr,
                               const std::string& msg);

namespace internal {
template <typename A, typename B>
std::string CheckOpMessage(const char* a_str, const char* b_str, const A& a, const B& b) {
  return std::string(a_str) + " vs " + b_str + " (lhs=" + std::to_string(a) +
         ", rhs=" + std::to_string(b) + ")";
}
}  // namespace internal

#define CHAOS_CHECK(cond)                                          \
  do {                                                             \
    if (!(cond)) [[unlikely]] {                                    \
      ::chaos::CheckFailure(__FILE__, __LINE__, #cond, "");        \
    }                                                              \
  } while (0)

#define CHAOS_CHECK_MSG(cond, msg)                                 \
  do {                                                             \
    if (!(cond)) [[unlikely]] {                                    \
      ::chaos::CheckFailure(__FILE__, __LINE__, #cond, (msg));     \
    }                                                              \
  } while (0)

#define CHAOS_CHECK_OP(op, a, b)                                                           \
  do {                                                                                     \
    auto&& chaos_check_a = (a);                                                            \
    auto&& chaos_check_b = (b);                                                            \
    if (!(chaos_check_a op chaos_check_b)) [[unlikely]] {                                  \
      ::chaos::CheckFailure(__FILE__, __LINE__, #a " " #op " " #b,                         \
                            ::chaos::internal::CheckOpMessage(#a, #b, chaos_check_a,       \
                                                              chaos_check_b));             \
    }                                                                                      \
  } while (0)

#define CHAOS_CHECK_EQ(a, b) CHAOS_CHECK_OP(==, a, b)
#define CHAOS_CHECK_NE(a, b) CHAOS_CHECK_OP(!=, a, b)
#define CHAOS_CHECK_LT(a, b) CHAOS_CHECK_OP(<, a, b)
#define CHAOS_CHECK_LE(a, b) CHAOS_CHECK_OP(<=, a, b)
#define CHAOS_CHECK_GT(a, b) CHAOS_CHECK_OP(>, a, b)
#define CHAOS_CHECK_GE(a, b) CHAOS_CHECK_OP(>=, a, b)

// Debug-only check: compiled out in NDEBUG builds, for hot paths.
#ifdef NDEBUG
#define CHAOS_DCHECK(cond) \
  do {                     \
  } while (0)
#else
#define CHAOS_DCHECK(cond) CHAOS_CHECK(cond)
#endif

// Identifier of a simulated machine within the cluster (0-based).
using MachineId = int32_t;

// Identifier of a streaming partition (0-based; partitions are vertex ranges).
using PartitionId = uint32_t;

constexpr MachineId kNoMachine = -1;

}  // namespace chaos

#endif  // CHAOS_UTIL_COMMON_H_

// Per-instruction register and FP-stack effects, read from the use/def and
// FP-stack columns of the opcode table (svm/ops.def), next to the op bodies
// both execution engines run.
//
// Two models are exposed:
//  * kSound — effects are an over-approximation of uses and an
//    under-approximation of guaranteed defs, as required for the
//    pre-injection pruning proof ("register dead on every path"). In
//    particular `sys` defs nothing, because set_result fires only for
//    result-returning syscalls and only on success paths.
//  * kLint — effects match the common-case behaviour so the
//    uninitialized-register-read diagnostic doesn't drown in
//    conservatism: `sys` defs r1 exactly when the syscall documents a
//    result in r1.
#pragma once

#include <cstdint>

#include "svm/isa.hpp"

namespace fsim::svm::analysis {

enum class DefUseModel : std::uint8_t { kSound, kLint };

struct RegEffect {
  std::uint16_t use = 0;     // bitmask of GPRs read
  std::uint16_t def = 0;     // bitmask of GPRs written
  bool uses_all = false;     // indirect transfer: assume every GPR live
  std::int8_t fp_delta = 0;  // net FP-stack depth change
  std::int8_t fp_needs = 0;  // minimum FP-stack depth on entry
  std::int8_t frame_delta = 0;  // enter +1 / leave -1 (call-frame balance)
};

/// Effect of one encoded instruction word. Undefined opcodes return an
/// empty effect (they trap before touching state).
RegEffect instr_effect(std::uint32_t word, DefUseModel model) noexcept;

/// Number of r1..rN argument registers a syscall reads (from the
/// convention table in syscall.hpp); 4 for unknown numbers.
int sys_arg_count(std::uint16_t number) noexcept;

/// True if the syscall writes a result into r1 on its success path.
bool sys_writes_result(std::uint16_t number) noexcept;

inline constexpr std::uint16_t kAllGpr = 0xffff;

constexpr std::uint16_t reg_bit(unsigned r) noexcept {
  return static_cast<std::uint16_t>(1u << (r & 0xf));
}

}  // namespace fsim::svm::analysis

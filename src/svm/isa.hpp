// Instruction set of the SVM, the simulated 32-bit machine that hosts the
// benchmark applications.
//
// The ISA is deliberately x86-flavoured where the paper's analysis depends on
// x86 details: a frame-pointer calling convention (ENTER/LEAVE push the old
// FP so the injector can walk stack frames, §3.2), and an x87-style
// floating-point register *stack* with a tag word whose corruption can turn a
// valid number into NaN or zero (§6.1.1).
//
// Encoding: fixed 32-bit little-endian words,
//   [ opcode:8 | a:4 | b:4 | imm16:16 ]
// where three-register ALU ops carry the third register in the low nibble of
// imm16. Only ~70 of the 256 opcode values are defined, so a random bit flip
// in the opcode byte is likely to produce an illegal instruction — the same
// property that makes text-segment upsets crash real x86 programs.
#pragma once

#include <cstdint>
#include <string>

namespace fsim::svm {

/// Opcodes, generated from the opcode table (svm/ops.def), where each
/// op's operands, effects and semantics are documented.
enum class Op : std::uint8_t {
#define OP(name, code, ...) k##name = code,
#include "svm/ops.def"
};

/// Number of defined opcodes.
inline constexpr unsigned kNumOps = 0
#define OP(...) +1
#include "svm/ops.def"
    ;

/// Operand syntax of an opcode, shared by the assembler and disassembler.
/// Signed (I) and zero-extended (U) 16-bit immediates are distinct formats.
enum class Fmt : std::uint8_t {
  kNone,    // nop
  kR,       // push r1
  kRR,      // mov r1, r2
  kR3,      // add r1, r2, r3
  kRI,      // ldi r1, simm
  kRU,      // lui r1, uimm
  kRRI,     // addi r1, r2, simm
  kRRU,     // andi r1, r2, uimm
  kLoad,    // ldw r1, [r2+simm]
  kStore,   // stw [r2+simm], r1
  kFMem,    // fld [r2+simm]
  kBranch,  // beq r1, r2, target
  kJump,    // jmp target
  kImm,     // enter uimm
};

/// Control-transfer class of an instruction.
enum class FlowKind : std::uint8_t {
  kFallthrough,   // ordinary instruction: pc+4
  kBranch,        // conditional: pc+4 or relative target
  kJump,          // unconditional relative target
  kIndirectJump,  // jmpr: register target
  kCall,          // relative target, pushes return address
  kIndirectCall,  // callr: register target, pushes return address
  kRet,           // pops return address
  kSys,           // pc+4, but a blocked syscall re-fetches its own pc
  kIllegal,       // undefined opcode: traps
};

/// Data-memory access of an opcode (see the ops.def access column).
enum class Access : std::uint8_t { kNone, kLoad, kStore };

/// Vocabulary of the ops.def columns.
namespace opdef {
// Register roles, the bits of OpInfo::use and OpInfo::def.
inline constexpr std::uint8_t A = 1 << 0;     // the rA field
inline constexpr std::uint8_t B = 1 << 1;     // the rB field
inline constexpr std::uint8_t C = 1 << 2;     // the rC field (imm & 0xf)
inline constexpr std::uint8_t SP = 1 << 3;    // the stack pointer
inline constexpr std::uint8_t FP = 1 << 4;    // the frame pointer
inline constexpr std::uint8_t ALL = 1 << 5;   // indirect: any GPR stays live
inline constexpr std::uint8_t ARGS = 1 << 6;  // the syscall's argument regs
inline constexpr std::uint8_t RES = 1 << 7;   // the syscall's result in r1
// fp_needs of an op that reads ST(imm & 7).
inline constexpr std::int8_t STI = -1;
}  // namespace opdef

/// Static facts of one opcode byte, from its ops.def row.
struct OpInfo {
  const char* name = nullptr;  // mnemonic; nullptr for an undefined byte
  Fmt fmt = Fmt::kNone;
  FlowKind flow = FlowKind::kIllegal;
  std::uint8_t use = 0;  // opdef role masks
  std::uint8_t def = 0;
  std::int8_t fp_needs = 0;  // or opdef::STI
  std::int8_t fp_delta = 0;
  std::int8_t frame_delta = 0;
  Access access = Access::kNone;
  std::uint8_t width = 0;  // bytes accessed
  /// Dense dispatch index: the row number 1..kNumOps, 0 when undefined.
  std::uint8_t index = 0;

  constexpr bool valid() const noexcept { return name != nullptr; }
  /// Operates on the FP stack (every x87-style op, and only those).
  constexpr bool fpu() const noexcept { return fp_needs != 0 || fp_delta != 0; }
  /// Has a [rB + simm] memory operand.
  constexpr bool mem_operand() const noexcept {
    return fmt == Fmt::kLoad || fmt == Fmt::kStore || fmt == Fmt::kFMem;
  }
};

/// The ops.def row of an opcode byte (an all-default OpInfo if undefined).
const OpInfo& op_info(Op op) noexcept;

/// Decoded instruction. `imm` is the raw 16-bit field; helpers interpret it.
struct Instr {
  Op op{};
  std::uint8_t a = 0;   // destination / first register (0..15)
  std::uint8_t b = 0;   // second register
  std::uint16_t imm = 0;

  constexpr std::int32_t simm() const noexcept {
    return static_cast<std::int16_t>(imm);
  }
  constexpr std::uint8_t c() const noexcept { return imm & 0xf; }  // third reg
};

constexpr std::uint32_t encode(Op op, unsigned a = 0, unsigned b = 0,
                               unsigned imm = 0) noexcept {
  return static_cast<std::uint32_t>(op) | ((a & 0xfu) << 8) |
         ((b & 0xfu) << 12) | ((imm & 0xffffu) << 16);
}

constexpr Instr decode(std::uint32_t word) noexcept {
  Instr i;
  i.op = static_cast<Op>(word & 0xffu);
  i.a = (word >> 8) & 0xfu;
  i.b = (word >> 12) & 0xfu;
  i.imm = static_cast<std::uint16_t>(word >> 16);
  return i;
}

/// True if the opcode byte names a defined instruction.
inline bool is_valid_opcode(std::uint8_t op) noexcept {
  return op_info(static_cast<Op>(op)).valid();
}

/// Mnemonic for a defined opcode; "???" if undefined.
inline const char* mnemonic(Op op) noexcept {
  const char* n = op_info(op).name;
  return n ? n : "???";
}

/// Human-readable disassembly of one instruction word. Emits the exact
/// syntax the assembler accepts, so `assemble(disassemble(w))` round-trips
/// for position-independent instructions.
std::string disassemble(std::uint32_t word);

/// Disassembly with PC context: branch/jump/call targets are printed as
/// absolute addresses (which the assembler also accepts), making *every*
/// defined instruction round-trippable.
std::string disassemble(std::uint32_t word, std::uint32_t pc);

// Register aliases used by the calling convention.
inline constexpr unsigned kSp = 13;  // stack pointer
inline constexpr unsigned kFp = 14;  // frame pointer (x86 EBP analogue)
inline constexpr unsigned kNumGpr = 16;
inline constexpr unsigned kNumFpr = 8;

}  // namespace fsim::svm

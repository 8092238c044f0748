// Pre-decoded instruction stream of a linked SVM image — the compile stage
// both execution engines share.
//
// Lowering happens once per linked program (campaigns build one
// CompiledProgram per batch entry and share it read-only across workers):
// every text and libtext word is decoded into a DOp with the opcode
// validity, the sign-extended immediate and the absolute branch/jump/call
// target precomputed, ordered by the basic blocks of the svm/analysis CFG
// when one is supplied.
//
// The stream is keyed to the text bytes it was lowered from: each DOp
// remembers its raw word, and `repatch` re-lowers every block whose bytes
// no longer match the machine's memory — which is how injected text-bit
// flips keep landing correctly under the threaded engine (the interpreter
// engine additionally compares the fetched word per instruction, so a
// stale cache entry is never executed there either).
#pragma once

#include <cstdint>
#include <vector>

#include "svm/isa.hpp"
#include "svm/layout.hpp"

namespace fsim::svm {
class Memory;
class Program;
namespace analysis {
class Cfg;
}
}  // namespace fsim::svm

namespace fsim::svm::exec {

/// Dispatch index of the guard slot a CompiledProgram places after each text
/// segment's ops: one past the last opcode row (OpInfo::index), so the
/// threaded engine's table dispatch catches straight-line execution running
/// off a segment end without a per-instruction bounds check.
inline constexpr std::uint8_t kGuardOp = kNumOps + 1;
static_assert(kNumOps + 1 <= 0xff, "dispatch indices must fit DOp::op");

/// One lowered instruction. Field-for-field reconstructible into the
/// `Instr` the interpreter consumes; the extra fields are the decode work
/// the engines no longer repeat per dynamic execution.
struct DOp {
  std::uint32_t raw = 0;     // encoded word this op was lowered from
  std::uint32_t target = 0;  // pc + 4 + simm*4 for branch/jump/call
  std::uint32_t tindex = 0xffffffffu;  // instruction index of `target`
  std::int32_t simm = 0;     // sign-extended imm16
  std::uint16_t imm = 0;     // raw immediate field
  std::uint8_t op = 0;       // dispatch index: OpInfo::index, 0 when invalid
  std::uint8_t a = 0;        // first register field
  std::uint8_t b = 0;        // second register field
  std::uint8_t c = 0;        // third ALU register (imm & 0xf)
  bool valid = false;        // is_valid_opcode(raw opcode byte)
};

/// Lower one instruction word at `pc` (the engines' cache-miss path).
/// `tindex` is left unresolved; CompiledProgram fills it from its layout.
DOp lower_op(Addr pc, std::uint32_t word) noexcept;

class CompiledProgram {
 public:
  static constexpr std::uint32_t kNoIndex = 0xffffffffu;

  /// Lower from the linked image alone (one basic block per text segment).
  /// Cheap enough for lazy per-machine compilation in one-off runs.
  explicit CompiledProgram(const Program& program);

  /// Lower in the basic-block order of an analysis CFG built over the same
  /// image; blocks become the invalidation granules of `repatch`.
  CompiledProgram(const Program& program, const analysis::Cfg& cfg);

  /// Dense instruction index of a code address (user text first, then —
  /// after one guard slot — library text); kNoIndex when `pc` is
  /// misaligned or outside the executable ranges.
  std::uint32_t index_of(Addr pc) const noexcept {
    if ((pc & 3u) == 0) {
      if (pc - text_base_ < text_size_) return (pc - text_base_) >> 2;
      if (pc - lib_base_ < lib_size_)
        return n_text_ + 1 + ((pc - lib_base_) >> 2);
    }
    return kNoIndex;
  }
  /// Code address of a real instruction index (never a guard slot's).
  Addr addr_of(std::uint32_t index) const noexcept {
    return index < n_text_ ? text_base_ + index * 4
                           : lib_base_ + (index - n_text_ - 1) * 4;
  }

  const DOp* ops() const noexcept { return ops_.data(); }
  std::uint32_t num_instructions() const noexcept {
    return static_cast<std::uint32_t>(ops_.size());
  }

  /// Compiled-block table: [first, first+count) instruction-index ranges.
  struct BlockRef {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  const std::vector<BlockRef>& blocks() const noexcept { return blocks_; }

  /// Re-lower every block whose raw text words no longer match `mem`
  /// (privileged pokes into text bump the memory's code version, which is
  /// the caller's cue to invoke this). Returns the number of blocks
  /// re-lowered. Only ever called on a machine-private copy — the shared
  /// per-campaign instance stays immutable.
  std::size_t repatch(const Memory& mem);

 private:
  void lower_all(const std::vector<std::uint32_t>& text_words,
                 const std::vector<std::uint32_t>& lib_words);
  DOp lower_at(std::uint32_t index, std::uint32_t word) const noexcept;

  Addr text_base_ = 0, lib_base_ = 0;
  std::uint32_t text_size_ = 0, lib_size_ = 0;  // bytes
  std::uint32_t n_text_ = 0;                    // user-text instruction count
  std::vector<DOp> ops_;  // [text ops][guard][libtext ops][guard]
  std::vector<BlockRef> blocks_;
};

}  // namespace fsim::svm::exec

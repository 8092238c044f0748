// Threaded-code execution engine.
//
// Executes the pre-decoded DOp stream of a CompiledProgram with a
// computed-goto dispatch loop (GNU labels-as-values) over the op bodies of
// svm/ops.def, the same bodies the interpreter expands. The contract with
// the interpreter is bit-identical architectural state at every quantum
// boundary:
//
//  * the return value counts exactly what the interpreter counts — aborting
//    ops (traps, blocking/exiting syscalls) bump icount but not `executed`;
//  * traps carry the same Trap code and fault address, and leave pc on the
//    faulting instruction;
//  * syscalls run with pc still on the SYS word and may charge extra cycles;
//    after a completed syscall the segment snapshot (exec/fastmem.hpp) and
//    compiled stream are re-validated, since handlers poke memory through
//    the privileged interface (pokes land in place; only a text poke or a
//    text-changing restore bumps the code version and forces a refresh);
//  * text flips between quanta are caught by the Memory code-version check
//    on entry; the machine then repatches a private copy of the stream.
//
// The hot loop keeps pc, the DOp cursor and the instruction counters in
// locals, flushing them to the architectural registers only at quantum
// boundaries, traps, syscalls and slow-path exits:
//
//  * straight-line flow advances the cursor (`++d`) instead of re-resolving
//    pc — a guard slot after each segment's ops (kGuardOp) catches running
//    off the end and re-resolves;
//  * taken branches jump through the precomputed target index (DOp::tindex);
//    only register-indirect transfers (jmpr/callr/ret) re-resolve;
//  * invalid words carry dispatch index 0, whose table entry is the
//    illegal-instruction handler — no per-op validity branch.
//
// Tools that attach an AccessObserver never reach this loop — Machine::step
// routes them to the interpreter, which reports every fetch/load/store.
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "svm/machine.hpp"

namespace fsim::svm {

std::uint64_t Machine::step_threaded(std::uint64_t max_instructions) {
  if (state_ != RunState::kReady) return 0;
  const exec::CompiledProgram* code = refresh_code();
  // The segment snapshot persists across quanta: privileged pokes between
  // quanta mutate the backing storage in place, so only a contents
  // replacement (signalled through the code version) or a different owner
  // (this machine was copied) invalidates it.
  exec::FastMem& fm = fastmem_;
  if (!fm.valid(mem_)) fm.refresh(mem_);

  auto& g = regs_.gpr;
  Fpu& f = regs_.fpu;
  std::uint32_t pc = regs_.pc;
  const exec::DOp* d = nullptr;
  // `ic` counts ops entered since the last icount_ flush; `acc` holds
  // executed cycles already fully accounted (syscall charges, slow-path
  // ops). The architectural icount_ and pc are flushed only at exits.
  std::uint64_t ic = 0;
  std::uint64_t acc = 0;
  std::uint64_t quota = max_instructions;

// The op bodies of svm/ops.def over the threaded vocabulary: memory goes
// through the segment snapshot `fm`, and pc, the cursor and the counters
// stay in locals.
#define MEM fm
// An aborting op leaves pc on the faulting instruction and, exactly like the
// interpreter, is excluded from the executed count even though icount was
// bumped (the op did enter, so `ic` covers it).
#define FAIL(trap, addr)     \
  do {                       \
    icount_ += ic;           \
    regs_.pc = pc;           \
    raise((trap), (addr));   \
    return acc + ic - 1;     \
  } while (0)
// Enter the op the cursor points at: quantum check, charge, dispatch.
#define DISPATCH()                        \
  do {                                    \
    if (ic >= quota) goto quantum_end;    \
    ++ic;                                 \
    goto* kTable[d->op];                  \
  } while (0)
// Fall through to the next word: pure pointer/pc increment — the guard
// slot catches running off a segment end.
#define NEXT_SEQ() \
  do {             \
    pc += 4;       \
    ++d;           \
    DISPATCH();    \
  } while (0)
// Taken branch/jump/call through the precomputed target index.
#define NEXT_TO(tgt, tidx)                                     \
  do {                                                         \
    pc = (tgt);                                                \
    if ((tidx) == exec::CompiledProgram::kNoIndex) goto slow;  \
    d = code->ops() + (tidx);                                  \
    DISPATCH();                                                \
  } while (0)
// Register-indirect transfer: resolve the dynamic pc.
#define NEXT_DYN(tgt) \
  do {                \
    pc = (tgt);       \
    goto lookup;      \
  } while (0)
// sys leaves the handler layout for the flush-and-call path at sys_call,
// which reads the number from d->imm.
#define SYSCALL(number) goto sys_call

  // Label-address table indexed by the dispatch index: 0 is an invalid
  // word, then one handler per ops.def row in row order, then the guard
  // slot after each segment's ops.
  static void* const kTable[] = {
      &&L_bad,
#define OP(name, ...) &&L_##name,
#include "svm/ops.def"
      &&L_guard};
  static_assert(std::size(kTable) == exec::kGuardOp + 1);

lookup: {
  const std::uint32_t idx = code->index_of(pc);
  if (idx == exec::CompiledProgram::kNoIndex) goto slow;
  d = code->ops() + idx;
  DISPATCH();
}

slow:
  // Misaligned pc or pc outside the code segments (including the exit
  // sentinel): flush state and delegate one op to the interpreter, whose
  // fetch raises the precise trap / finishes the machine. But only within
  // the quantum: if the op that brought us here exhausted the budget, stop
  // at the boundary exactly like the interpreter's pre-op check does — the
  // trap/finish belongs to the next quantum.
  icount_ += ic;
  acc += ic;
  ic = 0;
  regs_.pc = pc;
  if (acc >= max_instructions) return acc;
  {
    const std::uint64_t before = icount_;
    if (!exec_one()) return acc;
    acc += icount_ - before;
  }
  if (acc >= max_instructions) return acc;
  quota = max_instructions - acc;
  pc = regs_.pc;
  if (mem_.code_version() != code_version_seen_) code = refresh_code();
  if (!fm.valid(mem_)) fm.refresh(mem_);
  goto lookup;

quantum_end:
  icount_ += ic;
  regs_.pc = pc;
  return acc + ic;

  // One handler per opcode, in opcode order (the handler layout the
  // -fno-gcse/-fno-crossjumping TU flags keep apart).
#define OP(name, code, mnem, format, flow, use, def, fp_needs, fp_delta, \
           frame_delta, access, width, ...)                              \
  L_##name: {                                                            \
    __VA_ARGS__                                                          \
  }
#include "svm/ops.def"

sys_call: {
  // Flush: handlers read pc (still on the SYS word), may charge icount
  // and may peek/poke any architectural state.
  icount_ += ic;
  regs_.pc = pc;
  const std::uint64_t sys_base = icount_;
  const SysResult r = handler_->on_syscall(*this, d->imm);
  switch (r) {
    case SysResult::kDone:
      break;
    case SysResult::kBlock:
      state_ = RunState::kBlocked;
      return acc + ic - 1;  // PC stays on the SYS instruction
    case SysResult::kExit:
      return acc + ic - 1;  // finish() already called by the handler
    case SysResult::kTrap:
      return acc + ic - 1;  // raise() already called by the handler
  }
  // The SYS op plus whatever it charged counts as executed work.
  acc += ic + (icount_ - sys_base);
  ic = 0;
  quota = max_instructions > acc ? max_instructions - acc : 0;
  if (state_ != RunState::kReady) return acc;
  // The handler may have poked memory (message delivery, heap growth
  // bookkeeping, checkpoint restore): pokes land in place, but a text
  // poke or text-changing restore bumps the code version — re-validate the
  // compiled stream and the segment snapshot. `d` may dangle after
  // refresh_code, so re-resolve pc.
  if (mem_.code_version() != code_version_seen_) code = refresh_code();
  if (!fm.valid(mem_)) fm.refresh(mem_);
  NEXT_DYN(pc + 4);
}

L_guard:
  --ic;  // a guard slot is not an instruction; re-resolve pc
  goto lookup;
L_bad:
  // The interpreter rejects an invalid word before bumping icount (the
  // validity check precedes the charge there), so an illegal op is neither
  // executed nor counted — undo the dispatch charge before flushing.
  --ic;
  icount_ += ic;
  regs_.pc = pc;
  raise(Trap::kIllegalInstruction, pc);
  return acc + ic;

#undef SYSCALL
#undef NEXT_DYN
#undef NEXT_TO
#undef NEXT_SEQ
#undef DISPATCH
#undef FAIL
#undef MEM
}

}  // namespace fsim::svm

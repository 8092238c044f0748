#include "svm/machine.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/status.hpp"

namespace fsim::svm {

namespace {

std::array<std::uint32_t, kNumSegments> image_sizes(const Program& p) {
  std::array<std::uint32_t, kNumSegments> sizes{};
  for (unsigned i = 0; i < kNumSegments; ++i)
    sizes[i] = p.segment_size(static_cast<Segment>(i));
  return sizes;
}

}  // namespace

Machine::Machine(const Program& program, const Config& config, int rank)
    : mem_(image_sizes(program),
           Memory::Config{config.heap_capacity, config.stack_capacity}),
      program_(&program),
      rank_(rank),
      engine_(config.engine),
      code_(config.compiled) {
  // Copy the static images in with the privileged interface.
  for (unsigned i = 0; i < kNumSegments; ++i) {
    const Segment seg = static_cast<Segment>(i);
    const auto& img = program.image(seg);
    if (img.empty()) continue;
    FSIM_CHECK(mem_.extent(seg).base == program.segment_base(seg));
    FSIM_CHECK(mem_.poke_span(mem_.extent(seg).base, img));
  }
  // Start at main with the exit sentinel as its return address, the same
  // fiction crt0 provides on a real system.
  regs_.pc = program.entry();
  const Addr stack_top = mem_.extent(Segment::kStack).end();
  regs_.set_sp(stack_top - 4);
  regs_.set_fp(stack_top - 4);
  FSIM_CHECK(mem_.poke32(regs_.sp(), kExitSentinel));
  // Text now equals the image any CompiledProgram was lowered from; pokes
  // after this point are what refresh_code() must catch.
  code_version_seen_ = mem_.code_version();
}

void Machine::ensure_code() {
  if (cur_code_ != nullptr) return;
  if (!code_) patched_ = std::make_unique<exec::CompiledProgram>(*program_);
  cur_code_ = patched_ ? patched_.get() : code_.get();
}

const exec::CompiledProgram* Machine::refresh_code() {
  ensure_code();
  if (mem_.code_version() != code_version_seen_) {
    if (!patched_) {
      // First text mutation under a shared stream: take a private copy so
      // the campaign-wide instance stays pristine for sibling machines.
      patched_ = std::make_unique<exec::CompiledProgram>(*code_);
      cur_code_ = patched_.get();
    }
    patched_->repatch(mem_);
    code_version_seen_ = mem_.code_version();
  }
  return cur_code_;
}

std::uint64_t Machine::step(std::uint64_t max_instructions) {
  // The threaded engine has no observer hooks; trace/working-set tools that
  // attach an AccessObserver transparently fall back to the interpreter.
  if (engine_ == exec::EngineKind::kThreaded && mem_.observer() == nullptr)
    return step_threaded(max_instructions);
  std::uint64_t executed = 0;
  while (executed < max_instructions && state_ == RunState::kReady) {
    const std::uint64_t before = icount_;
    if (!exec_one()) break;
    // exec_one advances icount_ by >= 1 (syscalls may charge extra).
    executed += icount_ - before;
  }
  return executed;
}

bool Machine::exec_one() {
  std::uint32_t word = 0;
  if (regs_.pc == kExitSentinel) {
    finish(static_cast<int>(regs_.gpr[1]));
    return false;
  }
  if (Trap t = mem_.fetch32(regs_.pc, word); t != Trap::kNone) {
    raise(t, regs_.pc);
    return false;
  }
  // Decode cache: reuse the pre-lowered op when the fetched word still
  // matches what it was lowered from; a mismatch (injected text flip) takes
  // the one-off slow decode for just that word.
  ensure_code();
  exec::DOp op;
  if (const std::uint32_t idx = cur_code_->index_of(regs_.pc);
      idx != exec::CompiledProgram::kNoIndex &&
      cur_code_->ops()[idx].raw == word) {
    op = cur_code_->ops()[idx];
  } else {
    op = exec::lower_op(regs_.pc, word);
  }
  if (!op.valid) {
    raise(Trap::kIllegalInstruction, regs_.pc);
    return false;
  }

  ++icount_;
  auto& g = regs_.gpr;
  Fpu& f = regs_.fpu;
  const exec::DOp* const d = &op;
  const Addr pc = regs_.pc;

  // The op bodies of svm/ops.def over the interpreter's vocabulary: memory
  // goes through mem_ so an attached AccessObserver sees every access.
#define MEM mem_
#define FAIL(trap, addr)    \
  do {                      \
    raise((trap), (addr));  \
    return false;           \
  } while (0)
#define NEXT_SEQ()        \
  do {                    \
    regs_.pc = pc + 4;    \
    return true;          \
  } while (0)
#define NEXT_TO(tgt, tidx) NEXT_DYN(tgt)
#define NEXT_DYN(tgt)   \
  do {                  \
    regs_.pc = (tgt);   \
    return true;        \
  } while (0)
  // kBlock parks the machine with pc still on the sys word; kExit and kTrap
  // already set the state through finish()/raise().
#define SYSCALL(number)                                          \
  do {                                                           \
    const SysResult r = handler_->on_syscall(*this, (number));   \
    if (r == SysResult::kBlock) state_ = RunState::kBlocked;     \
    if (r != SysResult::kDone) return false;                     \
    NEXT_SEQ();                                                  \
  } while (0)

  switch (decode(op.raw).op) {
#define OP(name, code, mnem, format, flow, use, def, fp_needs, fp_delta, \
           frame_delta, access, width, ...)                              \
  case Op::k##name: {                                                    \
    __VA_ARGS__                                                          \
  }
#include "svm/ops.def"
  }
#undef SYSCALL
#undef NEXT_DYN
#undef NEXT_TO
#undef NEXT_SEQ
#undef FAIL
#undef MEM
  return false;  // unreachable: every valid opcode has a row
}

}  // namespace fsim::svm

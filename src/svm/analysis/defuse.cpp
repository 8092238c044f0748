#include "svm/analysis/defuse.hpp"

#include "svm/syscall.hpp"

namespace fsim::svm::analysis {

int sys_arg_count(std::uint16_t number) noexcept {
  switch (static_cast<Sys>(number)) {
    case Sys::kClock:
    case Sys::kRand:
    case Sys::kMpiInit:
    case Sys::kMpiFinalize:
    case Sys::kMpiCommRank:
    case Sys::kMpiCommSize:
    case Sys::kMpiBarrier:
      return 0;
    case Sys::kExit:
    case Sys::kPrintI32:
    case Sys::kOutI32:
    case Sys::kOutBinF64:
    case Sys::kMalloc:
    case Sys::kFree:
    case Sys::kMpiErrhandlerSet:
    case Sys::kMpiWait:
    case Sys::kMpiTest:
    case Sys::kMpiSendrecv:
      return 1;
    case Sys::kPrintStr:
    case Sys::kOutStr:
    case Sys::kOutF64:
    case Sys::kConF64:
    case Sys::kAssertFail:
    case Sys::kChecksum:
    case Sys::kRealloc:
    case Sys::kMpiProbe:
      return 2;
    case Sys::kMpiBcast:
    case Sys::kMpiAllreduceSum:
      return 3;
    case Sys::kMpiSend:
    case Sys::kMpiRecv:
    case Sys::kMpiReduceSum:
    case Sys::kMpiIsend:
    case Sys::kMpiIrecv:
    case Sys::kMpiGather:
    case Sys::kMpiScatter:
      return 4;
  }
  return 4;  // unknown syscall: assume it reads every argument register
}

bool sys_writes_result(std::uint16_t number) noexcept {
  switch (static_cast<Sys>(number)) {
    case Sys::kMalloc:
    case Sys::kClock:
    case Sys::kChecksum:
    case Sys::kRand:
    case Sys::kRealloc:
    case Sys::kMpiCommRank:
    case Sys::kMpiCommSize:
    case Sys::kMpiRecv:
    case Sys::kMpiIsend:
    case Sys::kMpiIrecv:
    case Sys::kMpiWait:
    case Sys::kMpiTest:
    case Sys::kMpiProbe:
    case Sys::kMpiSendrecv:
      return true;
    default:
      return false;
  }
}

RegEffect instr_effect(std::uint32_t word, DefUseModel model) noexcept {
  const Instr in = decode(word);
  const OpInfo& op = op_info(in.op);
  // Resolve the row's register roles against this instruction's fields.
  auto regs = [&](std::uint8_t roles) {
    std::uint16_t m = 0;
    if (roles & opdef::A) m |= reg_bit(in.a);
    if (roles & opdef::B) m |= reg_bit(in.b);
    if (roles & opdef::C) m |= reg_bit(in.c());
    if (roles & opdef::SP) m |= reg_bit(kSp);
    if (roles & opdef::FP) m |= reg_bit(kFp);
    if (roles & opdef::ARGS)
      for (int r = 1; r <= sys_arg_count(in.imm); ++r)
        m |= reg_bit(static_cast<unsigned>(r));
    // kSound: a blocked or failing syscall may leave r1 untouched, so a
    // def here would be a guaranteed-kill claim we cannot make.
    if ((roles & opdef::RES) && model == DefUseModel::kLint &&
        sys_writes_result(in.imm))
      m |= reg_bit(1);
    return m;
  };
  RegEffect e;
  e.use = regs(op.use);
  e.def = regs(op.def);
  e.uses_all = (op.use & opdef::ALL) != 0;
  e.fp_needs = op.fp_needs == opdef::STI
                   ? static_cast<std::int8_t>((in.imm & 7) + 1)
                   : op.fp_needs;
  e.fp_delta = op.fp_delta;
  e.frame_delta = op.frame_delta;
  return e;
}

}  // namespace fsim::svm::analysis

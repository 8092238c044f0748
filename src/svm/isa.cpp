#include "svm/isa.hpp"

#include <array>
#include <cstdio>

namespace fsim::svm {

namespace {

constexpr std::array<OpInfo, 256> build_op_table() {
  using namespace opdef;
  std::array<OpInfo, 256> t{};
  std::uint8_t index = 0;
#define OP(name, code, mnem, format, flow_kind, use, def, fp_needs, fp_delta, \
           frame_delta, access, width, ...)                                   \
  t[code] = OpInfo{mnem,      Fmt::k##format, FlowKind::k##flow_kind,        \
                   use,       def,            fp_needs,                      \
                   fp_delta,  frame_delta,    Access::k##access,             \
                   width,     ++index};
#include "svm/ops.def"
  return t;
}

constexpr auto kOpTable = build_op_table();

}  // namespace

const OpInfo& op_info(Op op) noexcept {
  return kOpTable[static_cast<std::uint8_t>(op)];
}

namespace {

std::string disassemble_impl(std::uint32_t word, bool have_pc,
                             std::uint32_t pc) {
  const Instr i = decode(word);
  const OpInfo& info = op_info(i.op);
  char buf[96];
  const char* m = info.name;
  if (!info.valid()) {
    std::snprintf(buf, sizeof buf, ".illegal 0x%08x", word);
    return buf;
  }
  // With PC context, control-flow targets print as absolute addresses.
  const long long target =
      static_cast<long long>(pc) + 4 + static_cast<long long>(i.simm()) * 4;
  switch (info.fmt) {
    case Fmt::kNone:
      std::snprintf(buf, sizeof buf, "%s", m);
      break;
    case Fmt::kR:
      std::snprintf(buf, sizeof buf, "%s r%u", m, i.a);
      break;
    case Fmt::kRR:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u", m, i.a, i.b);
      break;
    case Fmt::kR3:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, r%u", m, i.a, i.b, i.c());
      break;
    case Fmt::kRI:
      std::snprintf(buf, sizeof buf, "%s r%u, %d", m, i.a, i.simm());
      break;
    case Fmt::kRU:
      std::snprintf(buf, sizeof buf, "%s r%u, %u", m, i.a, i.imm);
      break;
    case Fmt::kRRI:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, %d", m, i.a, i.b, i.simm());
      break;
    case Fmt::kRRU:
      std::snprintf(buf, sizeof buf, "%s r%u, r%u, %u", m, i.a, i.b, i.imm);
      break;
    case Fmt::kLoad:
      std::snprintf(buf, sizeof buf, "%s r%u, [r%u%+d]", m, i.a, i.b, i.simm());
      break;
    case Fmt::kStore:
      std::snprintf(buf, sizeof buf, "%s [r%u%+d], r%u", m, i.b, i.simm(), i.a);
      break;
    case Fmt::kFMem:
      std::snprintf(buf, sizeof buf, "%s [r%u%+d]", m, i.b, i.simm());
      break;
    case Fmt::kBranch:
      if (have_pc)
        std::snprintf(buf, sizeof buf, "%s r%u, r%u, %lld", m, i.a, i.b, target);
      else
        std::snprintf(buf, sizeof buf, "%s r%u, r%u, %d", m, i.a, i.b,
                      i.simm());
      break;
    case Fmt::kJump:
      if (have_pc)
        std::snprintf(buf, sizeof buf, "%s %lld", m, target);
      else
        std::snprintf(buf, sizeof buf, "%s %d", m, i.simm());
      break;
    case Fmt::kImm:
      std::snprintf(buf, sizeof buf, "%s %u", m, i.imm);
      break;
  }
  return buf;
}

}  // namespace

std::string disassemble(std::uint32_t word) {
  return disassemble_impl(word, false, 0);
}

std::string disassemble(std::uint32_t word, std::uint32_t pc) {
  return disassemble_impl(word, true, pc);
}

}  // namespace fsim::svm

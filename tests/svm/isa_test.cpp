#include "svm/isa.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "svm/assembler.hpp"

namespace fsim::svm {
namespace {

TEST(Isa, EncodeDecodeRoundTrip) {
  const std::uint32_t w = encode(Op::kAddi, 3, 7, 0xff7f);
  const Instr i = decode(w);
  EXPECT_EQ(i.op, Op::kAddi);
  EXPECT_EQ(i.a, 3u);
  EXPECT_EQ(i.b, 7u);
  EXPECT_EQ(i.imm, 0xff7fu);
}

TEST(Isa, SignedImmediateInterpretation) {
  const Instr i = decode(encode(Op::kLdi, 1, 0, static_cast<std::uint16_t>(-5)));
  EXPECT_EQ(i.simm(), -5);
}

TEST(Isa, ThirdRegisterInImmField) {
  const Instr i = decode(encode(Op::kAdd, 1, 2, 3));
  EXPECT_EQ(i.c(), 3u);
}

TEST(Isa, ZeroWordIsIllegal) {
  EXPECT_FALSE(is_valid_opcode(0x00));
}

TEST(Isa, AllDeclaredOpcodesValid) {
  for (std::uint8_t op : {0x01, 0x2d, 0x30, 0x43}) {
    EXPECT_TRUE(is_valid_opcode(op)) << "opcode " << int(op);
  }
}

TEST(Isa, SparseOpcodeSpace) {
  // The fault model relies on a sparse opcode map: a random opcode byte
  // should usually be illegal (cf. text-injection crashes in the paper).
  int valid = 0;
  for (int op = 0; op < 256; ++op)
    if (is_valid_opcode(static_cast<std::uint8_t>(op))) ++valid;
  EXPECT_LT(valid, 80);
  EXPECT_GT(valid, 50);
}

TEST(Isa, MnemonicLookup) {
  EXPECT_STREQ(mnemonic(Op::kAdd), "add");
  EXPECT_STREQ(mnemonic(Op::kFsqrt), "fsqrt");
  EXPECT_STREQ(mnemonic(static_cast<Op>(0xee)), "???");
}

TEST(Isa, DisassembleForms) {
  EXPECT_EQ(disassemble(encode(Op::kAdd, 1, 2, 3)), "add r1, r2, r3");
  EXPECT_EQ(disassemble(encode(Op::kLdw, 4, 13, static_cast<std::uint16_t>(-8))),
            "ldw r4, [r13-8]");
  EXPECT_EQ(disassemble(encode(Op::kRet)), "ret");
  EXPECT_EQ(disassemble(0u).substr(0, 8), ".illegal");
}

TEST(Isa, RegisterAliases) {
  EXPECT_EQ(kSp, 13u);
  EXPECT_EQ(kFp, 14u);
  EXPECT_EQ(kNumGpr, 16u);
  EXPECT_EQ(kNumFpr, 8u);
}

// ---------------------------------------------------------------------------
// Round-trip property: assemble(disassemble(word, pc)) == word for every
// defined instruction form. This pins the textual syntax and the binary
// encoding to each other. AllForms is a hand-picked word per form;
// EveryOpcode covers every defined opcode byte.
// ---------------------------------------------------------------------------

std::uint32_t reassemble(const std::string& line) {
  Program p = assemble(".text\nmain:\n    " + line + "\n");
  std::uint32_t w = 0;
  std::memcpy(&w, p.image(Segment::kText).data(), 4);
  return w;
}

class DisasmRoundTrip : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DisasmRoundTrip, ReassemblesToSameWord) {
  const std::uint32_t word = GetParam();
  const std::string text = disassemble(word, kTextBase);
  EXPECT_EQ(reassemble(text), word) << text;
}

INSTANTIATE_TEST_SUITE_P(
    AllForms, DisasmRoundTrip,
    ::testing::Values(
        encode(Op::kNop), encode(Op::kMov, 3, 9),
        encode(Op::kLdi, 5, 0, static_cast<std::uint16_t>(-77)),
        encode(Op::kLui, 2, 0, 0x9abc), encode(Op::kAdd, 1, 2, 3),
        encode(Op::kDivs, 15, 14, 13),
        encode(Op::kAddi, 4, 5, static_cast<std::uint16_t>(-8)),
        encode(Op::kAndi, 6, 7, 0xff00), encode(Op::kOri, 1, 1, 0x8001),
        encode(Op::kXori, 2, 3, 0xffff), encode(Op::kShli, 8, 9, 31),
        encode(Op::kSrai, 1, 2, 7), encode(Op::kSlt, 3, 4, 5),
        encode(Op::kLdw, 1, 13, 8),
        encode(Op::kStw, 3, 14, static_cast<std::uint16_t>(-12)),
        encode(Op::kLdb, 2, 4, 100), encode(Op::kStb, 7, 8, 0),
        encode(Op::kPush, 11), encode(Op::kPop, 12),
        encode(Op::kBeq, 1, 2, 4),
        encode(Op::kBne, 3, 4, static_cast<std::uint16_t>(-1)),
        encode(Op::kBltu, 5, 6, 100), encode(Op::kJmp, 0, 0, 7),
        encode(Op::kJmpr, 9), encode(Op::kCall, 0, 0, 2),
        encode(Op::kCallr, 10), encode(Op::kRet),
        encode(Op::kEnter, 0, 0, 64), encode(Op::kLeave),
        encode(Op::kSys, 0, 0, 36), encode(Op::kFld, 0, 3, 16),
        encode(Op::kFst, 0, 4, static_cast<std::uint16_t>(-8)),
        encode(Op::kFstnp, 0, 5, 24), encode(Op::kFldz), encode(Op::kFld1),
        encode(Op::kFaddp), encode(Op::kFdivp), encode(Op::kFsqrt),
        encode(Op::kFxch, 0, 0, 3), encode(Op::kFdup, 0, 0, 7),
        encode(Op::kFcmp, 6), encode(Op::kF2i, 7), encode(Op::kI2f, 8),
        encode(Op::kFpop)));

// Every defined opcode byte, in the canonical form its disassembly
// reassembles to when every operand field of the word is populated (a=3,
// b=5, imm=0xfff8: c=8, and the immediate is negative when read signed).
std::vector<std::uint32_t> every_opcode() {
  std::vector<std::uint32_t> words;
  for (unsigned byte = 0; byte < 256; ++byte) {
    if (!is_valid_opcode(static_cast<std::uint8_t>(byte))) continue;
    const std::uint32_t dirty = encode(static_cast<Op>(byte), 3, 5, 0xfff8);
    words.push_back(reassemble(disassemble(dirty, kTextBase)));
  }
  return words;
}

INSTANTIATE_TEST_SUITE_P(EveryOpcode, DisasmRoundTrip,
                         ::testing::ValuesIn(every_opcode()));

// The disassembly of that populated word for every opcode byte: pins each
// op's operand format, including which immediates print zero-extended.
TEST(Isa, DisassemblyOfEveryOpcode) {
  const std::map<unsigned, std::string> want = {
      {0x01, "nop"},
      {0x02, "mov r3, r5"},
      {0x03, "ldi r3, -8"},
      {0x04, "lui r3, 65528"},
      {0x05, "add r3, r5, r8"},
      {0x06, "sub r3, r5, r8"},
      {0x07, "mul r3, r5, r8"},
      {0x08, "divs r3, r5, r8"},
      {0x09, "rems r3, r5, r8"},
      {0x0a, "and r3, r5, r8"},
      {0x0b, "or r3, r5, r8"},
      {0x0c, "xor r3, r5, r8"},
      {0x0d, "shl r3, r5, r8"},
      {0x0e, "shr r3, r5, r8"},
      {0x0f, "sra r3, r5, r8"},
      {0x10, "addi r3, r5, -8"},
      {0x11, "muli r3, r5, -8"},
      {0x12, "andi r3, r5, 65528"},
      {0x13, "ori r3, r5, 65528"},
      {0x14, "xori r3, r5, 65528"},
      {0x15, "shli r3, r5, -8"},
      {0x16, "shri r3, r5, -8"},
      {0x17, "srai r3, r5, -8"},
      {0x18, "slt r3, r5, r8"},
      {0x19, "sltu r3, r5, r8"},
      {0x1a, "ldw r3, [r5-8]"},
      {0x1b, "stw [r5-8], r3"},
      {0x1c, "ldb r3, [r5-8]"},
      {0x1d, "stb [r5-8], r3"},
      {0x1e, "push r3"},
      {0x1f, "pop r3"},
      {0x20, "beq r3, r5, 134512612"},
      {0x21, "bne r3, r5, 134512612"},
      {0x22, "blt r3, r5, 134512612"},
      {0x23, "bge r3, r5, 134512612"},
      {0x24, "bltu r3, r5, 134512612"},
      {0x25, "bgeu r3, r5, 134512612"},
      {0x26, "jmp 134512612"},
      {0x27, "jmpr r3"},
      {0x28, "call 134512612"},
      {0x29, "callr r3"},
      {0x2a, "ret"},
      {0x2b, "enter 65528"},
      {0x2c, "leave"},
      {0x2d, "sys 65528"},
      {0x30, "fld [r5-8]"},
      {0x31, "fst [r5-8]"},
      {0x32, "fstnp [r5-8]"},
      {0x33, "fldz"},
      {0x34, "fld1"},
      {0x35, "faddp"},
      {0x36, "fsubp"},
      {0x37, "fmulp"},
      {0x38, "fdivp"},
      {0x39, "fchs"},
      {0x3a, "fabs"},
      {0x3b, "fsqrt"},
      {0x3c, "fsin"},
      {0x3d, "fcos"},
      {0x3e, "fxch 65528"},
      {0x3f, "fdup 65528"},
      {0x40, "fcmp r3"},
      {0x41, "f2i r3"},
      {0x42, "i2f r3"},
      {0x43, "fpop"},
  };
  for (unsigned byte = 0; byte < 256; ++byte) {
    if (!is_valid_opcode(static_cast<std::uint8_t>(byte))) continue;
    const auto it = want.find(byte);
    ASSERT_NE(it, want.end()) << "opcode " << byte;
    EXPECT_EQ(disassemble(encode(static_cast<Op>(byte), 3, 5, 0xfff8),
                          kTextBase),
              it->second);
  }
  std::size_t valid = 0;
  for (unsigned byte = 0; byte < 256; ++byte)
    valid += is_valid_opcode(static_cast<std::uint8_t>(byte));
  EXPECT_EQ(valid, want.size());
}

}  // namespace
}  // namespace fsim::svm

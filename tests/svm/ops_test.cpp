// Per-opcode specification of the SVM instruction set.
//
// Both execution engines expand the same op bodies, so a wrong body would
// pass the lockstep engine_diff test unnoticed: the two engines would agree
// on the wrong answer. This test pins every op from the outside instead:
//
//  * OpsExec: concrete input -> output cases for every defined opcode, run
//    one instruction at a time under both engines, trap paths included
//    (divide by zero and INT_MIN/-1, stack-limit overflow, f2i integer
//    indefinite, unordered fcmp, IEEE division by zero, syscall results);
//  * OpsTable: for all 256 opcode bytes, the static facts every analysis
//    reads (validity, mnemonic, flow class, register and FP-stack effects
//    under both def/use models) as literals.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "svm/analysis/cfg.hpp"
#include "svm/analysis/defuse.hpp"
#include "svm/assembler.hpp"
#include "svm/isa.hpp"
#include "svm/machine.hpp"

namespace fsim::svm {
namespace {

using exec::EngineKind;

// ---------------------------------------------------------------------------
// OpsExec: one instruction at a time, both engines
// ---------------------------------------------------------------------------

/// Addresses of the fixture program the op under test runs in.
struct Ctx {
  Addr main = 0;      // the op under test
  Addr tgt = 0;       // branch/jump/call target label
  Addr buf = 0;       // 4 words: 0x11223344, 0xfffffff0, 0, 0
  Addr dbl = 0;       // 2 doubles: 2.5, 0
  Addr stack_lo = 0;  // lowest mapped stack address
};

Machine::Config config_for(EngineKind engine) {
  Machine::Config c;
  c.engine = engine;
  return c;
}

struct Proc {
  Program program;
  Machine machine;
  Ctx ctx;
  Proc(const std::string& line, EngineKind engine)
      : program(assemble(".text\nmain:\n    " + line +
                         "\n    nop\n    nop\ntgt:\n    nop\n    ret\n"
                         ".data\nbuf:\n    .word 0x11223344, 0xfffffff0, 0, 0\n"
                         "dbl:\n    .f64 2.5, 0\n")),
        machine(program, config_for(engine)) {
    ctx.main = program.find_symbol("main")->address;
    ctx.tgt = program.find_symbol("tgt")->address;
    ctx.buf = program.find_symbol("buf")->address;
    ctx.dbl = program.find_symbol("dbl")->address;
    ctx.stack_lo = machine.memory().extent(Segment::kStack).base;
  }
};

using Setup = std::function<void(Machine&, const Ctx&)>;
using Check = std::function<void(const Machine&, const Ctx&,
                                 std::uint64_t executed)>;

/// Test syscall handler: records the number and answers with `result`.
struct FakeSys : SyscallHandler {
  SysResult result = SysResult::kDone;
  std::uint16_t seen = 0xffff;
  SysResult on_syscall(Machine& m, std::uint16_t number) override {
    seen = number;
    switch (result) {
      case SysResult::kDone:
        m.set_result(42);
        m.charge(5);
        break;
      case SysResult::kExit:
        m.finish(7);
        break;
      case SysResult::kTrap:
        m.raise(Trap::kHeapExhausted, 0x1234);
        break;
      case SysResult::kBlock:
        break;
    }
    return result;
  }
};

std::uint32_t word_at(const Machine& m, Addr a) {
  std::uint32_t v = 0;
  EXPECT_TRUE(m.memory().peek32(a, v));
  return v;
}

double double_at(const Machine& m, Addr a) {
  std::uint64_t v = 0;
  EXPECT_TRUE(m.memory().peek64(a, v));
  return std::bit_cast<double>(v);
}

double st(const Machine& m, unsigned i) { return m.regs().fpu.st(i); }
unsigned depth(const Machine& m) { return m.regs().fpu.depth(); }
std::uint32_t gpr(const Machine& m, unsigned r) { return m.regs().gpr[r]; }

/// Run `line` as the first instruction of the fixture under both engines:
/// `setup` prepares registers and memory, one step() runs the op, `check`
/// inspects the result. The two machines must also agree on every piece
/// of architectural state.
void spec(const std::string& line, const Setup& setup, const Check& check,
          FakeSys* sys = nullptr) {
  std::unique_ptr<Proc> runs[2];
  const EngineKind engines[2] = {EngineKind::kInterp, EngineKind::kThreaded};
  for (int e = 0; e < 2; ++e) {
    SCOPED_TRACE(line + " [" + exec::engine_name(engines[e]) + "]");
    runs[e] = std::make_unique<Proc>(line, engines[e]);
    Machine& m = runs[e]->machine;
    if (sys) m.set_handler(sys);
    setup(m, runs[e]->ctx);
    const std::uint64_t executed = m.step(1);
    check(m, runs[e]->ctx, executed);
  }
  SCOPED_TRACE(line + " [interp vs threaded]");
  const Machine& a = runs[0]->machine;
  const Machine& b = runs[1]->machine;
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.trap(), b.trap());
  EXPECT_EQ(a.fault_addr(), b.fault_addr());
  EXPECT_EQ(a.instructions(), b.instructions());
  EXPECT_EQ(a.regs().pc, b.regs().pc);
  for (unsigned r = 0; r < kNumGpr; ++r) EXPECT_EQ(gpr(a, r), gpr(b, r));
  EXPECT_EQ(a.regs().fpu.top(), b.regs().fpu.top());
  EXPECT_EQ(a.regs().fpu.twd(), b.regs().fpu.twd());
  for (unsigned p = 0; p < kNumFpr; ++p)
    EXPECT_EQ(a.regs().fpu.raw(p), b.regs().fpu.raw(p));
  for (Segment s : {Segment::kData, Segment::kStack}) {
    const auto x = a.memory().segment_bytes(s);
    const auto y = b.memory().segment_bytes(s);
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
  }
}

void no_setup(Machine&, const Ctx&) {}

/// The op completed and control moved to `next`.
void expect_ok(const Machine& m, std::uint64_t executed, Addr next) {
  EXPECT_EQ(m.state(), RunState::kReady);
  EXPECT_EQ(m.trap(), Trap::kNone);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(m.instructions(), 1u);
  EXPECT_EQ(m.regs().pc, next);
}

/// The op trapped: pc stays on it, icount counts it, executed does not.
void expect_trap(const Machine& m, const Ctx& c, std::uint64_t executed,
                 Trap trap, Addr addr) {
  EXPECT_EQ(m.state(), RunState::kTrapped);
  EXPECT_EQ(m.trap(), trap);
  EXPECT_EQ(m.fault_addr(), addr);
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(m.instructions(), 1u);
  EXPECT_EQ(m.regs().pc, c.main);
}

/// Three-register ALU op: r1 <- op(r2=x, r3=y) == want.
void alu3(const std::string& mn, std::uint32_t x, std::uint32_t y,
          std::uint32_t want) {
  spec(
      mn + " r1, r2, r3",
      [=](Machine& m, const Ctx&) {
        m.regs().gpr[2] = x;
        m.regs().gpr[3] = y;
      },
      [=](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), want);
        EXPECT_EQ(gpr(m, 2), x);
        EXPECT_EQ(gpr(m, 3), y);
      });
}

/// Register-immediate op: r1 <- op(r2=x, imm) == want.
void alui(const std::string& mn, std::uint32_t x, const std::string& imm,
          std::uint32_t want) {
  spec(
      mn + " r1, r2, " + imm,
      [=](Machine& m, const Ctx&) { m.regs().gpr[2] = x; },
      [=](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), want);
      });
}

/// Conditional branch on (r1=x, r2=y): taken or not.
void branch(const std::string& mn, std::uint32_t x, std::uint32_t y,
            bool taken) {
  spec(
      mn + " r1, r2, tgt",
      [=](Machine& m, const Ctx&) {
        m.regs().gpr[1] = x;
        m.regs().gpr[2] = y;
      },
      [=](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, taken ? c.tgt : c.main + 4);
      });
}

/// FP op over a pushed stack (bottom first); check ST values after.
void fpu(const std::string& line, std::vector<double> stack,
         std::vector<double> want) {
  spec(
      line,
      [=](Machine& m, const Ctx&) {
        for (double v : stack) m.regs().fpu.push(v);
      },
      [=](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        ASSERT_EQ(depth(m), want.size());
        for (unsigned i = 0; i < want.size(); ++i) {
          if (std::isnan(want[i]))
            EXPECT_TRUE(std::isnan(st(m, i))) << "ST(" << i << ")";
          else
            EXPECT_EQ(st(m, i), want[i]) << "ST(" << i << ")";
        }
      });
}

constexpr std::uint32_t kIntMin = 0x80000000u;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(OpsExec, Nop) {
  spec("nop", no_setup, [](const Machine& m, const Ctx& c, std::uint64_t n) {
    expect_ok(m, n, c.main + 4);
  });
}

TEST(OpsExec, MoveAndImmediates) {
  spec(
      "mov r1, r2", [](Machine& m, const Ctx&) { m.regs().gpr[2] = 0xdeadbeef; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), 0xdeadbeefu);
      });
  spec("ldi r1, -5", no_setup,
       [](const Machine& m, const Ctx& c, std::uint64_t n) {
         expect_ok(m, n, c.main + 4);
         EXPECT_EQ(gpr(m, 1), 0xfffffffbu);
       });
  spec("lui r1, 0x9abc", no_setup,
       [](const Machine& m, const Ctx& c, std::uint64_t n) {
         expect_ok(m, n, c.main + 4);
         EXPECT_EQ(gpr(m, 1), 0x9abc0000u);
       });
}

TEST(OpsExec, ThreeRegisterAlu) {
  alu3("add", 5, 7, 12);
  alu3("add", 0xffffffffu, 2, 1);
  alu3("sub", 5, 7, 0xfffffffeu);
  alu3("mul", 6, 7, 42);
  alu3("mul", 0x10000u, 0x10000u, 0);
  alu3("divs", static_cast<std::uint32_t>(-7), 2, static_cast<std::uint32_t>(-3));
  alu3("divs", kIntMin, 2, 0xc0000000u);
  alu3("rems", static_cast<std::uint32_t>(-7), 2, static_cast<std::uint32_t>(-1));
  alu3("rems", 7, static_cast<std::uint32_t>(-2), 1);
  alu3("and", 0xff00ff00u, 0x0ff00ff0u, 0x0f000f00u);
  alu3("or", 0xff00ff00u, 0x0ff00ff0u, 0xfff0fff0u);
  alu3("xor", 0xff00ff00u, 0x0ff00ff0u, 0xf0f0f0f0u);
  alu3("shl", 1, 33, 2);  // shift counts are taken mod 32
  alu3("shr", kIntMin, 31, 1);
  alu3("sra", kIntMin, 31, 0xffffffffu);
  alu3("sra", 0x40000000u, 30, 1);
  alu3("slt", 0xffffffffu, 1, 1);
  alu3("slt", 1, 0xffffffffu, 0);
  alu3("sltu", 0xffffffffu, 1, 0);
  alu3("sltu", 1, 0xffffffffu, 1);
}

TEST(OpsExec, DivideTraps) {
  for (const char* mn : {"divs", "rems"}) {
    for (auto [x, y] : {std::pair<std::uint32_t, std::uint32_t>{5, 0},
                        {kIntMin, 0xffffffffu}}) {
      spec(
          std::string(mn) + " r1, r2, r3",
          [=](Machine& m, const Ctx&) {
            m.regs().gpr[1] = 99;
            m.regs().gpr[2] = x;
            m.regs().gpr[3] = y;
          },
          [](const Machine& m, const Ctx& c, std::uint64_t n) {
            expect_trap(m, c, n, Trap::kIntDivideByZero, c.main);
            EXPECT_EQ(gpr(m, 1), 99u);
          });
    }
  }
}

TEST(OpsExec, ImmediateAlu) {
  alui("addi", 10, "-3", 7);
  alui("muli", 10, "-2", static_cast<std::uint32_t>(-20));
  // andi/ori/xori zero-extend their immediate.
  alui("andi", 0xffffffffu, "0xff00", 0xff00u);
  alui("ori", 0x12340000u, "0x8001", 0x12348001u);
  alui("xori", 0xffffffffu, "0xffff", 0xffff0000u);
  alui("shli", 3, "31", kIntMin);
  alui("shri", kIntMin, "4", 0x08000000u);
  alui("srai", kIntMin, "4", 0xf8000000u);
}

TEST(OpsExec, LoadsAndStores) {
  spec(
      "ldw r1, [r2+4]", [](Machine& m, const Ctx& c) { m.regs().gpr[2] = c.buf; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), 0xfffffff0u);
      });
  spec(
      "ldb r1, [r2+4]", [](Machine& m, const Ctx& c) { m.regs().gpr[2] = c.buf; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), 0xf0u);  // zero-extended
      });
  spec(
      "stw [r2-4], r1",
      [](Machine& m, const Ctx& c) {
        m.regs().gpr[1] = 0xcafef00du;
        m.regs().gpr[2] = c.buf + 12;
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(word_at(m, c.buf + 8), 0xcafef00du);
      });
  spec(
      "stb [r2+1], r1",
      [](Machine& m, const Ctx& c) {
        m.regs().gpr[1] = 0xabcd;
        m.regs().gpr[2] = c.buf;
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(word_at(m, c.buf), 0x1122cd44u);  // low byte only
      });
}

TEST(OpsExec, MemoryTraps) {
  // Unmapped, misaligned and write-protected accesses report the address.
  for (const char* line : {"ldw r1, [r2+0]", "ldb r1, [r2+0]",
                           "stw [r2+0], r1", "stb [r2+0], r1",
                           "fld [r2+0]", "fst [r2+0]", "fstnp [r2+0]"}) {
    spec(
        line,
        [](Machine& m, const Ctx&) {
          m.regs().gpr[2] = 16;
          m.regs().fpu.push(1.0);
        },
        [](const Machine& m, const Ctx& c, std::uint64_t n) {
          expect_trap(m, c, n, Trap::kBadAddress, 16);
          EXPECT_EQ(depth(m), 1u);  // a faulting fst pops nothing
        });
  }
  spec(
      "ldw r1, [r2+2]", [](Machine& m, const Ctx& c) { m.regs().gpr[2] = c.buf; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kMisaligned, c.buf + 2);
      });
  spec(
      "stw [r2+0], r1",
      [](Machine& m, const Ctx& c) { m.regs().gpr[2] = c.main; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kWriteProtected, c.main);
      });
}

TEST(OpsExec, PushAndPop) {
  spec(
      "push r1", [](Machine& m, const Ctx&) { m.regs().gpr[1] = 0x5150; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        const Addr sp = m.memory().extent(Segment::kStack).end() - 8;
        EXPECT_EQ(gpr(m, kSp), sp);
        EXPECT_EQ(word_at(m, sp), 0x5150u);
      });
  spec(
      "pop r1", no_setup,
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, 1), kExitSentinel);  // crt0's return address
        EXPECT_EQ(gpr(m, kSp), m.memory().extent(Segment::kStack).end());
      });
  spec(
      "pop r1", [](Machine& m, const Ctx&) { m.regs().gpr[kSp] = 8; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kBadAddress, 8);
        EXPECT_EQ(gpr(m, kSp), 8u);
      });
}

TEST(OpsExec, StackLimitMapsToStackOverflow) {
  // Every op that pushes onto the stack reports kStackOverflow, not
  // kBadAddress, when the push lands below the stack reservation.
  for (const char* line : {"push r1", "call tgt", "callr r5", "enter 16"}) {
    spec(
        line,
        [](Machine& m, const Ctx& c) {
          m.regs().gpr[kSp] = c.stack_lo;
          m.regs().gpr[kFp] = 0x77;
          m.regs().gpr[5] = c.tgt;
        },
        [](const Machine& m, const Ctx& c, std::uint64_t n) {
          expect_trap(m, c, n, Trap::kStackOverflow, c.stack_lo - 4);
          EXPECT_EQ(gpr(m, kSp), c.stack_lo);
          EXPECT_EQ(gpr(m, kFp), 0x77u);
        });
  }
  // Other traps pass through unchanged.
  spec(
      "push r1", [](Machine& m, const Ctx& c) { m.regs().gpr[kSp] = c.buf + 2; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kMisaligned, c.buf - 2);
      });
}

TEST(OpsExec, Branches) {
  branch("beq", 4, 4, true);
  branch("beq", 4, 5, false);
  branch("bne", 4, 5, true);
  branch("bne", 4, 4, false);
  branch("blt", 0xffffffffu, 1, true);  // signed
  branch("blt", 1, 1, false);
  branch("bge", 1, 1, true);
  branch("bge", 0xffffffffu, 1, false);
  branch("bltu", 1, 0xffffffffu, true);  // unsigned
  branch("bltu", 0xffffffffu, 1, false);
  branch("bgeu", 0xffffffffu, 1, true);
  branch("bgeu", 1, 2, false);
}

TEST(OpsExec, JumpsCallsAndReturns) {
  spec("jmp tgt", no_setup,
       [](const Machine& m, const Ctx& c, std::uint64_t n) {
         expect_ok(m, n, c.tgt);
       });
  spec(
      "jmpr r5", [](Machine& m, const Ctx& c) { m.regs().gpr[5] = c.tgt; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.tgt);
      });
  for (const char* line : {"call tgt", "callr r5"}) {
    spec(
        line, [](Machine& m, const Ctx& c) { m.regs().gpr[5] = c.tgt; },
        [](const Machine& m, const Ctx& c, std::uint64_t n) {
          expect_ok(m, n, c.tgt);
          const Addr sp = m.memory().extent(Segment::kStack).end() - 8;
          EXPECT_EQ(gpr(m, kSp), sp);
          EXPECT_EQ(word_at(m, sp), c.main + 4);  // return address
        });
  }
  spec(
      "ret",
      [](Machine& m, const Ctx& c) {
        m.regs().gpr[kSp] -= 4;
        ASSERT_TRUE(m.memory().poke32(m.regs().gpr[kSp], c.tgt));
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.tgt);
        EXPECT_EQ(gpr(m, kSp), m.memory().extent(Segment::kStack).end() - 4);
      });
  spec(
      "ret", [](Machine& m, const Ctx&) { m.regs().gpr[kSp] = 6; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kMisaligned, 6);
      });
}

TEST(OpsExec, EnterAndLeave) {
  spec(
      "enter 16", [](Machine& m, const Ctx&) { m.regs().gpr[kFp] = 0x4444; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        const Addr slot = m.memory().extent(Segment::kStack).end() - 8;
        EXPECT_EQ(gpr(m, kFp), slot);
        EXPECT_EQ(gpr(m, kSp), slot - 16);
        EXPECT_EQ(word_at(m, slot), 0x4444u);  // saved fp
      });
  spec(
      "leave",
      [](Machine& m, const Ctx&) {
        const Addr slot = m.regs().gpr[kSp] - 8;
        ASSERT_TRUE(m.memory().poke32(slot, 0x5555));
        m.regs().gpr[kFp] = slot;
        m.regs().gpr[kSp] = slot - 32;
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(gpr(m, kFp), 0x5555u);
        EXPECT_EQ(gpr(m, kSp), m.memory().extent(Segment::kStack).end() - 8);
      });
  spec(
      "leave", [](Machine& m, const Ctx&) { m.regs().gpr[kFp] = 12; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_trap(m, c, n, Trap::kBadAddress, 12);
        EXPECT_EQ(gpr(m, kSp), 12u);  // sp <- fp happened before the load
      });
}

TEST(OpsExec, Syscalls) {
  spec("sys 8", no_setup,
       [](const Machine& m, const Ctx& c, std::uint64_t n) {
         expect_trap(m, c, n, Trap::kBadSyscall, c.main);
       });
  FakeSys h;
  h.result = SysResult::kDone;
  spec(
      "sys 36", no_setup,
      [&](const Machine& m, const Ctx& c, std::uint64_t n) {
        EXPECT_EQ(h.seen, 36u);
        EXPECT_EQ(m.state(), RunState::kReady);
        EXPECT_EQ(m.regs().pc, c.main + 4);
        EXPECT_EQ(gpr(m, 1), 42u);
        EXPECT_EQ(n, 6u);  // the op plus the 5 cycles it charged
        EXPECT_EQ(m.instructions(), 6u);
      },
      &h);
  h.result = SysResult::kBlock;
  spec(
      "sys 37", no_setup,
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        EXPECT_EQ(m.state(), RunState::kBlocked);
        EXPECT_EQ(m.regs().pc, c.main);  // re-executes when woken
        EXPECT_EQ(n, 0u);
        EXPECT_EQ(m.instructions(), 1u);
      },
      &h);
  h.result = SysResult::kExit;
  spec(
      "sys 0", no_setup,
      [](const Machine& m, const Ctx&, std::uint64_t n) {
        EXPECT_EQ(m.state(), RunState::kExited);
        EXPECT_EQ(m.exit_code(), 7);
        EXPECT_EQ(n, 0u);
        EXPECT_EQ(m.instructions(), 1u);
      },
      &h);
  h.result = SysResult::kTrap;
  spec(
      "sys 11", no_setup,
      [](const Machine& m, const Ctx&, std::uint64_t n) {
        EXPECT_EQ(m.state(), RunState::kTrapped);
        EXPECT_EQ(m.trap(), Trap::kHeapExhausted);
        EXPECT_EQ(m.fault_addr(), 0x1234u);
        EXPECT_EQ(n, 0u);
      },
      &h);
}

TEST(OpsExec, FpLoadsAndStores) {
  spec(
      "fld [r2+0]", [](Machine& m, const Ctx& c) { m.regs().gpr[2] = c.dbl; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        ASSERT_EQ(depth(m), 1u);
        EXPECT_EQ(st(m, 0), 2.5);
      });
  spec(
      "fst [r2+8]",
      [](Machine& m, const Ctx& c) {
        m.regs().gpr[2] = c.dbl;
        m.regs().fpu.push(-0.75);
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(double_at(m, c.dbl + 8), -0.75);
        EXPECT_EQ(depth(m), 0u);
      });
  spec(
      "fstnp [r2+8]",
      [](Machine& m, const Ctx& c) {
        m.regs().gpr[2] = c.dbl;
        m.regs().fpu.push(-0.75);
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        EXPECT_EQ(double_at(m, c.dbl + 8), -0.75);
        EXPECT_EQ(depth(m), 1u);
      });
}

TEST(OpsExec, FpArithmetic) {
  fpu("fldz", {}, {0.0});
  fpu("fld1", {7.0}, {1.0, 7.0});
  fpu("faddp", {3.0, 2.0}, {5.0});
  fpu("fsubp", {3.0, 2.0}, {1.0});
  fpu("fmulp", {3.0, 2.0}, {6.0});
  fpu("fdivp", {3.0, 2.0}, {1.5});
  fpu("fdivp", {3.0, 0.0}, {kInf});  // IEEE: no trap
  fpu("fdivp", {-3.0, 0.0}, {-kInf});
  fpu("fdivp", {0.0, 0.0}, {kNaN});
  fpu("fchs", {9.0, 2.0}, {-2.0, 9.0});
  fpu("fabs", {-2.0}, {2.0});
  fpu("fsqrt", {9.0}, {3.0});
  fpu("fsqrt", {-1.0}, {kNaN});
  fpu("fsin", {0.5}, {std::sin(0.5)});
  fpu("fcos", {0.5}, {std::cos(0.5)});
  fpu("fpop", {1.0, 2.0}, {1.0});
}

TEST(OpsExec, FpStackShuffles) {
  fpu("fxch 1", {1.0, 2.0}, {1.0, 2.0});
  fpu("fxch 2", {1.0, 2.0, 3.0}, {1.0, 2.0, 3.0});
  fpu("fxch 9", {1.0, 2.0}, {1.0, 2.0});  // imm & 7
  fpu("fxch 0", {1.0, 2.0}, {2.0, 1.0});
  fpu("fdup 0", {1.0, 2.0}, {2.0, 2.0, 1.0});
  fpu("fdup 1", {1.0, 2.0}, {1.0, 2.0, 1.0});
  fpu("fdup 9", {1.0, 2.0}, {1.0, 2.0, 1.0});
}

TEST(OpsExec, FpCompareAndConvert) {
  auto fcmp = [](double st1, double st0, std::uint32_t want) {
    spec(
        "fcmp r1",
        [=](Machine& m, const Ctx&) {
          m.regs().fpu.push(st1);
          m.regs().fpu.push(st0);
        },
        [=](const Machine& m, const Ctx& c, std::uint64_t n) {
          expect_ok(m, n, c.main + 4);
          EXPECT_EQ(gpr(m, 1), want);
          EXPECT_EQ(depth(m), 2u);  // fcmp pops nothing
        });
  };
  fcmp(2.0, 1.0, 0xffffffffu);  // ST(0) < ST(1)
  fcmp(1.0, 2.0, 1);
  fcmp(1.0, 1.0, 0);
  fcmp(1.0, kNaN, 2);  // unordered
  fcmp(kNaN, 1.0, 2);

  auto f2i = [](double v, std::uint32_t want) {
    spec(
        "f2i r1", [=](Machine& m, const Ctx&) { m.regs().fpu.push(v); },
        [=](const Machine& m, const Ctx& c, std::uint64_t n) {
          expect_ok(m, n, c.main + 4);
          EXPECT_EQ(gpr(m, 1), want);
          EXPECT_EQ(depth(m), 0u);
        });
  };
  f2i(3.7, 3);
  f2i(-3.7, static_cast<std::uint32_t>(-3));  // truncates toward zero
  f2i(-2147483648.0, kIntMin);
  f2i(2147483647.0, 0x7fffffffu);
  f2i(kNaN, kIntMin);  // integer indefinite
  f2i(2147483648.0, kIntMin);
  f2i(-2147483649.0, kIntMin);
  f2i(kInf, kIntMin);

  spec(
      "i2f r1", [](Machine& m, const Ctx&) { m.regs().gpr[1] = 0xfffffffbu; },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        expect_ok(m, n, c.main + 4);
        ASSERT_EQ(depth(m), 1u);
        EXPECT_EQ(st(m, 0), -5.0);  // signed source
      });
}

TEST(OpsExec, IllegalOpcodeIsNeitherExecutedNorCounted) {
  spec(
      "nop",
      [](Machine& m, const Ctx& c) {
        ASSERT_TRUE(m.memory().poke32(c.main, 0x000000eeu));
      },
      [](const Machine& m, const Ctx& c, std::uint64_t n) {
        EXPECT_EQ(m.state(), RunState::kTrapped);
        EXPECT_EQ(m.trap(), Trap::kIllegalInstruction);
        EXPECT_EQ(m.fault_addr(), c.main);
        EXPECT_EQ(n, 0u);
        EXPECT_EQ(m.instructions(), 0u);
      });
}

// ---------------------------------------------------------------------------
// OpsTable: static facts for all 256 opcode bytes
// ---------------------------------------------------------------------------

using analysis::DefUseModel;
using analysis::RegEffect;
using F = analysis::FlowKind;

/// RegEffect as literals: use, def, uses_all, fp_delta, fp_needs,
/// frame_delta.
struct Eff {
  std::uint16_t use, def;
  int uses_all, fp_delta, fp_needs, frame_delta;
};

void expect_effect(const RegEffect& got, const Eff& want) {
  EXPECT_EQ(got.use, want.use);
  EXPECT_EQ(got.def, want.def);
  EXPECT_EQ(got.uses_all, want.uses_all != 0);
  EXPECT_EQ(got.fp_delta, want.fp_delta);
  EXPECT_EQ(got.fp_needs, want.fp_needs);
  EXPECT_EQ(got.frame_delta, want.frame_delta);
}

struct OpRow {
  std::uint8_t op;
  const char* mnemonic;
  F flow;
  Eff sound, lint;  // effect of encode(op, 3, 5, 7) under each model
};

// clang-format off
const OpRow kOpRows[] = {
    {0x01, "nop", F::kFallthrough, {0x0000, 0x0000, 0, 0, 0, 0}, {0x0000, 0x0000, 0, 0, 0, 0}},
    {0x02, "mov", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x03, "ldi", F::kFallthrough, {0x0000, 0x0008, 0, 0, 0, 0}, {0x0000, 0x0008, 0, 0, 0, 0}},
    {0x04, "lui", F::kFallthrough, {0x0000, 0x0008, 0, 0, 0, 0}, {0x0000, 0x0008, 0, 0, 0, 0}},
    {0x05, "add", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x06, "sub", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x07, "mul", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x08, "divs", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x09, "rems", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0a, "and", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0b, "or", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0c, "xor", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0d, "shl", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0e, "shr", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x0f, "sra", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x10, "addi", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x11, "muli", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x12, "andi", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x13, "ori", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x14, "xori", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x15, "shli", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x16, "shri", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x17, "srai", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x18, "slt", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x19, "sltu", F::kFallthrough, {0x00a0, 0x0008, 0, 0, 0, 0}, {0x00a0, 0x0008, 0, 0, 0, 0}},
    {0x1a, "ldw", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x1b, "stw", F::kFallthrough, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x1c, "ldb", F::kFallthrough, {0x0020, 0x0008, 0, 0, 0, 0}, {0x0020, 0x0008, 0, 0, 0, 0}},
    {0x1d, "stb", F::kFallthrough, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x1e, "push", F::kFallthrough, {0x2008, 0x2000, 0, 0, 0, 0}, {0x2008, 0x2000, 0, 0, 0, 0}},
    {0x1f, "pop", F::kFallthrough, {0x2000, 0x2008, 0, 0, 0, 0}, {0x2000, 0x2008, 0, 0, 0, 0}},
    {0x20, "beq", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x21, "bne", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x22, "blt", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x23, "bge", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x24, "bltu", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x25, "bgeu", F::kBranch, {0x0028, 0x0000, 0, 0, 0, 0}, {0x0028, 0x0000, 0, 0, 0, 0}},
    {0x26, "jmp", F::kJump, {0x0000, 0x0000, 0, 0, 0, 0}, {0x0000, 0x0000, 0, 0, 0, 0}},
    {0x27, "jmpr", F::kIndirectJump, {0x0008, 0x0000, 1, 0, 0, 0}, {0x0008, 0x0000, 1, 0, 0, 0}},
    {0x28, "call", F::kCall, {0x2000, 0x2000, 0, 0, 0, 0}, {0x2000, 0x2000, 0, 0, 0, 0}},
    {0x29, "callr", F::kIndirectCall, {0x2008, 0x2000, 1, 0, 0, 0}, {0x2008, 0x2000, 1, 0, 0, 0}},
    {0x2a, "ret", F::kRet, {0x2000, 0x2000, 0, 0, 0, 0}, {0x2000, 0x2000, 0, 0, 0, 0}},
    {0x2b, "enter", F::kFallthrough, {0x6000, 0x6000, 0, 0, 0, 1}, {0x6000, 0x6000, 0, 0, 0, 1}},
    {0x2c, "leave", F::kFallthrough, {0x4000, 0x6000, 0, 0, 0, -1}, {0x4000, 0x6000, 0, 0, 0, -1}},
    {0x2d, "sys", F::kSys, {0x0006, 0x0000, 0, 0, 0, 0}, {0x0006, 0x0000, 0, 0, 0, 0}},
    {0x30, "fld", F::kFallthrough, {0x0020, 0x0000, 0, 1, 0, 0}, {0x0020, 0x0000, 0, 1, 0, 0}},
    {0x31, "fst", F::kFallthrough, {0x0020, 0x0000, 0, -1, 1, 0}, {0x0020, 0x0000, 0, -1, 1, 0}},
    {0x32, "fstnp", F::kFallthrough, {0x0020, 0x0000, 0, 0, 1, 0}, {0x0020, 0x0000, 0, 0, 1, 0}},
    {0x33, "fldz", F::kFallthrough, {0x0000, 0x0000, 0, 1, 0, 0}, {0x0000, 0x0000, 0, 1, 0, 0}},
    {0x34, "fld1", F::kFallthrough, {0x0000, 0x0000, 0, 1, 0, 0}, {0x0000, 0x0000, 0, 1, 0, 0}},
    {0x35, "faddp", F::kFallthrough, {0x0000, 0x0000, 0, -1, 2, 0}, {0x0000, 0x0000, 0, -1, 2, 0}},
    {0x36, "fsubp", F::kFallthrough, {0x0000, 0x0000, 0, -1, 2, 0}, {0x0000, 0x0000, 0, -1, 2, 0}},
    {0x37, "fmulp", F::kFallthrough, {0x0000, 0x0000, 0, -1, 2, 0}, {0x0000, 0x0000, 0, -1, 2, 0}},
    {0x38, "fdivp", F::kFallthrough, {0x0000, 0x0000, 0, -1, 2, 0}, {0x0000, 0x0000, 0, -1, 2, 0}},
    {0x39, "fchs", F::kFallthrough, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3a, "fabs", F::kFallthrough, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3b, "fsqrt", F::kFallthrough, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3c, "fsin", F::kFallthrough, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3d, "fcos", F::kFallthrough, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3e, "fxch", F::kFallthrough, {0x0000, 0x0000, 0, 0, 8, 0}, {0x0000, 0x0000, 0, 0, 8, 0}},
    {0x3f, "fdup", F::kFallthrough, {0x0000, 0x0000, 0, 1, 8, 0}, {0x0000, 0x0000, 0, 1, 8, 0}},
    {0x40, "fcmp", F::kFallthrough, {0x0000, 0x0008, 0, 0, 2, 0}, {0x0000, 0x0008, 0, 0, 2, 0}},
    {0x41, "f2i", F::kFallthrough, {0x0000, 0x0008, 0, -1, 1, 0}, {0x0000, 0x0008, 0, -1, 1, 0}},
    {0x42, "i2f", F::kFallthrough, {0x0008, 0x0000, 0, 1, 0, 0}, {0x0008, 0x0000, 0, 1, 0, 0}},
    {0x43, "fpop", F::kFallthrough, {0x0000, 0x0000, 0, -1, 1, 0}, {0x0000, 0x0000, 0, -1, 1, 0}},
};
// clang-format on

TEST(OpsTable, EveryOpcodeByte) {
  std::size_t row = 0;
  for (unsigned byte = 0; byte < 256; ++byte) {
    SCOPED_TRACE("opcode 0x" + std::to_string(byte));
    const Op op = static_cast<Op>(byte);
    const std::uint32_t w = encode(op, 3, 5, 7);
    const RegEffect sound = instr_effect(w, DefUseModel::kSound);
    const RegEffect lint = instr_effect(w, DefUseModel::kLint);
    if (row < std::size(kOpRows) && kOpRows[row].op == byte) {
      const OpRow& r = kOpRows[row++];
      EXPECT_TRUE(is_valid_opcode(static_cast<std::uint8_t>(byte)));
      EXPECT_STREQ(mnemonic(op), r.mnemonic);
      EXPECT_EQ(analysis::flow_of(w), r.flow);
      expect_effect(sound, r.sound);
      expect_effect(lint, r.lint);
    } else {
      EXPECT_FALSE(is_valid_opcode(static_cast<std::uint8_t>(byte)));
      EXPECT_STREQ(mnemonic(op), "???");
      EXPECT_EQ(analysis::flow_of(w), F::kIllegal);
      expect_effect(sound, Eff{0, 0, 0, 0, 0, 0});
      expect_effect(lint, Eff{0, 0, 0, 0, 0, 0});
    }
  }
  EXPECT_EQ(row, std::size(kOpRows));
  EXPECT_EQ(std::size(kOpRows), 65u);
}

struct ImmRow {
  std::uint8_t op;
  std::uint16_t imm;
  Eff sound, lint;  // effect of encode(op, 3, 5, imm)
};

// The ops whose effect depends on the immediate: fxch/fdup read ST(imm&7);
// sys reads the syscall's argument registers and, under kLint only, defines
// r1 when the syscall returns a result.
const ImmRow kImmRows[] = {
    {0x3e, 0, {0x0000, 0x0000, 0, 0, 1, 0}, {0x0000, 0x0000, 0, 0, 1, 0}},
    {0x3e, 3, {0x0000, 0x0000, 0, 0, 4, 0}, {0x0000, 0x0000, 0, 0, 4, 0}},
    {0x3e, 7, {0x0000, 0x0000, 0, 0, 8, 0}, {0x0000, 0x0000, 0, 0, 8, 0}},
    {0x3e, 9, {0x0000, 0x0000, 0, 0, 2, 0}, {0x0000, 0x0000, 0, 0, 2, 0}},
    {0x3f, 0, {0x0000, 0x0000, 0, 1, 1, 0}, {0x0000, 0x0000, 0, 1, 1, 0}},
    {0x3f, 3, {0x0000, 0x0000, 0, 1, 4, 0}, {0x0000, 0x0000, 0, 1, 4, 0}},
    {0x3f, 7, {0x0000, 0x0000, 0, 1, 8, 0}, {0x0000, 0x0000, 0, 1, 8, 0}},
    {0x3f, 9, {0x0000, 0x0000, 0, 1, 2, 0}, {0x0000, 0x0000, 0, 1, 2, 0}},
    {0x2d, 0, {0x0002, 0x0000, 0, 0, 0, 0}, {0x0002, 0x0000, 0, 0, 0, 0}},
    {0x2d, 3, {0x0006, 0x0000, 0, 0, 0, 0}, {0x0006, 0x0000, 0, 0, 0, 0}},
    {0x2d, 7, {0x0006, 0x0000, 0, 0, 0, 0}, {0x0006, 0x0000, 0, 0, 0, 0}},
    {0x2d, 9, {0x0002, 0x0000, 0, 0, 0, 0}, {0x0002, 0x0000, 0, 0, 0, 0}},
    {0x2d, 8, {0x0002, 0x0000, 0, 0, 0, 0}, {0x0002, 0x0002, 0, 0, 0, 0}},
    {0x2d, 36, {0x001e, 0x0000, 0, 0, 0, 0}, {0x001e, 0x0000, 0, 0, 0, 0}},
    {0x2d, 38, {0x0000, 0x0000, 0, 0, 0, 0}, {0x0000, 0x0000, 0, 0, 0, 0}},
    {0x2d, 999, {0x001e, 0x0000, 0, 0, 0, 0}, {0x001e, 0x0000, 0, 0, 0, 0}},
};

TEST(OpsTable, ImmediateDependentEffects) {
  for (const ImmRow& r : kImmRows) {
    SCOPED_TRACE(std::string(mnemonic(static_cast<Op>(r.op))) + " " +
                 std::to_string(r.imm));
    const std::uint32_t w = encode(static_cast<Op>(r.op), 3, 5, r.imm);
    expect_effect(instr_effect(w, DefUseModel::kSound), r.sound);
    expect_effect(instr_effect(w, DefUseModel::kLint), r.lint);
  }
}

}  // namespace
}  // namespace fsim::svm

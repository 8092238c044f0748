// Instruction-mix and hot-spot profiling.
//
// Decodes every fetched instruction of one traced rank and accumulates a
// per-opcode histogram plus per-symbol execution counts. Used to
// characterise the benchmark applications (how FPU-heavy is the kernel?
// where does the time go?) — the workload context behind the register and
// text sensitivity results.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "svm/isa.hpp"
#include "svm/machine.hpp"
#include "svm/program.hpp"

namespace fsim::trace {

class InstructionMixProfiler : public svm::AccessObserver {
 public:
  InstructionMixProfiler(const svm::Program& program, svm::Machine& machine);

  void on_fetch(svm::Addr addr) override;
  void on_load(svm::Addr, unsigned, svm::Segment) override {}
  void on_store(svm::Addr, unsigned, svm::Segment) override {}

  std::uint64_t total() const noexcept { return total_; }

  /// Executed-instruction count per opcode byte.
  const std::array<std::uint64_t, 256>& opcode_counts() const noexcept {
    return opcounts_;
  }

  /// Fraction of executed instructions in a category of the opcode table.
  double fpu_fraction() const;      // FP-stack ops
  double memory_fraction() const;   // data loads/stores, incl. push/pop
  double control_fraction() const;  // branches/jumps/calls/rets

  struct HotSymbol {
    std::string name;
    std::uint64_t count = 0;
    double fraction = 0;
  };
  /// The `top_n` most-executed user functions/labels.
  std::vector<HotSymbol> hottest(std::size_t top_n = 8) const;

  /// Render the mix as a table.
  std::string format(std::size_t top_opcodes = 12) const;

 private:
  const svm::Program* program_;
  svm::Machine* machine_;
  std::array<std::uint64_t, 256> opcounts_{};
  std::uint64_t total_ = 0;
  // Per-symbol counts resolved lazily: fetch offsets within user text are
  // bucketed and attributed to symbols at report time.
  std::vector<std::uint64_t> text_fetches_;  // per instruction word
  svm::Addr text_base_ = 0;
};

}  // namespace fsim::trace

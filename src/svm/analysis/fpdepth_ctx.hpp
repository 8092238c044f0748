// Context-sensitive FP-stack depth analysis: the one home of the FP-stack
// depth facts. It prunes FP-register faults (the fp-ctx ladder rung),
// bounds `fsim analyze`'s always-empty slot count and raises lint's
// absolute-depth diagnostics.
//
// For every reachable instruction it computes an interval [lo, hi] bounding
// the x87-style FP-stack depth (= TWD occupancy) on entry. Call contexts are
// kept apart by summary-based interprocedural analysis, where a
// context-insensitive fixpoint would smear a helper's return depth over
// every caller (a helper called at depths 0 and 1 returning [0, 1] to both):
//
//  1. Bottom-up, each function is summarized by its *relative* behaviour:
//     the net entry-to-ret delta interval [dlo, dhi], the minimum entry
//     depth `needs` avoiding interior underflow and the peak relative height
//     `peak` (both including composed callees). Recursion, indirect
//     transfers, unknown callees and out-of-range intervals void a summary;
//     the return sites of a call to it get unanchored TOP.
//  2. Top-down, a monotone fixpoint propagates *absolute* entry intervals
//     over the call graph from [0, 0] at the program entry: each call site
//     sends its own pre-call interval to its callee and applies the callee's
//     summary delta at its return site. With any reachable indirect
//     transfer, address-taken functions and materialised code addresses are
//     seeded unanchored TOP.
//  3. Per-instruction bounds join the interior walks of every (function,
//     entry interval) context.
//
// The payoff is the *anchor invariant*: from FPU reset, push/pop discipline
// keeps the occupied physical slots exactly {8-d, ..., 7}. While a state is
// `anchored` (no possible underflow, overflow or over-deep fxch on any path
// so far), slot p is provably empty at pc whenever p + hi < 8. A flipped data
// bit there is masked — reads of an empty slot see QNaN through the tag word
// and the only empty->occupied transition is a full 64-bit overwrite — so
// the injector classifies it Correct without a run. Whatever this pass
// cannot model drops to unanchored TOP or stays unreachable, and proves
// nothing: sound rather than precise.
//
// The same bounds give lint what its per-function *relative* checks cannot
// see: a definite overflow once a callee's absolute entry depth is added, a
// definite underflow no reachable path provides operands for, and a function
// entered at several absolute depths while operating on the stack.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "svm/analysis/cfg.hpp"

namespace fsim::svm::analysis {

/// FP-stack depth bounds on entry to one instruction.
struct DepthBounds {
  std::int8_t lo = 0;      // minimum depth over all reaching paths
  std::int8_t hi = 0;      // maximum depth over all reaching paths
  bool anchored = false;   // push/pop discipline intact on every path
  bool reachable = false;  // some fixpoint path reaches this instruction

  friend bool operator==(const DepthBounds&, const DepthBounds&) = default;
};

/// A finding of the depth analysis, converted to a lint Diagnostic by
/// run_lint (kept as its own struct so this pass does not depend on lint).
struct FpDepthIssue {
  bool is_error = false;
  std::string code;  // "fp-static-underflow" | "fp-static-overflow" |
                     // "fp-static-maybe-overflow" | "fp-call-depth-imbalance"
  Addr addr = 0;
  std::string message;
};

class FpDepthCtx {
 public:
  explicit FpDepthCtx(const Cfg& cfg);

  /// Context-joined absolute bounds on entry to the instruction at `pc`.
  /// Unreachable or out-of-code addresses return an unanchored,
  /// unreachable TOP.
  DepthBounds bounds_at(Addr pc) const noexcept;

  /// True if physical FP slot `phys` (0..7) is provably empty whenever the
  /// machine is about to execute `pc`: the context-joined state is
  /// anchored, the pc is reached, and phys + hi < 8.
  bool slot_empty_at(Addr pc, unsigned phys) const noexcept;

  /// Number of physical slots (counted from slot 0 upward) that are empty
  /// at *every* reachable instruction — 8 - max depth if every reachable
  /// state is anchored, 0 otherwise. A data-bit fault in such a slot is
  /// masked no matter when it is injected.
  unsigned always_empty_slots() const noexcept { return always_empty_; }

  /// Maximum anchored depth bound over all reachable instructions
  /// (kNumFpr when some reachable state is unanchored).
  unsigned max_depth_bound() const noexcept { return max_depth_; }

  /// Depth diagnostics, ordered by address then code.
  const std::vector<FpDepthIssue>& issues() const noexcept { return issues_; }

 private:
  /// Relative depth summary of one function (indexed like cfg.functions()).
  struct FnSummary {
    bool valid = false;   // composable: no recursion/indirect/unknown callee
    bool has_ret = false;  // some interior path reaches a ret
    std::int8_t dlo = 0, dhi = 0;  // net entry-to-ret depth delta interval
    std::int8_t needs = 0;  // min entry depth avoiding interior underflow
    std::int8_t peak = 0;   // max relative height reached (incl. callees)
  };

  /// Function index called by a direct call block, or Cfg::kNoBlock.
  std::uint32_t callee_of(const Block& b) const;
  void summarize_all();
  bool summarize(std::uint32_t fn, std::vector<std::uint8_t>& state);
  void solve_entries();
  /// Interior (intraprocedural) fixpoint of function `f` from entry_in_[f],
  /// applying callee summaries at call terminators. Reports each resolved
  /// call site's pre-call state through `callee_seen` and, with `record`,
  /// joins the per-instruction states into instr_in_.
  void walk(std::uint32_t f,
            std::vector<std::pair<std::uint32_t, DepthBounds>>* callee_seen,
            bool record);
  void diagnose();

  const Cfg* cfg_;
  std::unordered_map<std::uint32_t, std::uint32_t> fn_of_entry_;
  bool has_indirect_ = false;
  std::vector<FnSummary> summaries_;
  std::vector<DepthBounds> entry_in_;  // per function: absolute entry bounds
  std::vector<DepthBounds> instr_in_;  // per instruction, joined over contexts
  std::vector<FpDepthIssue> issues_;
  unsigned always_empty_ = 0;
  unsigned max_depth_ = 0;
};

}  // namespace fsim::svm::analysis

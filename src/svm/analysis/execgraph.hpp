// Execution-successor graph over Cfg blocks.
//
// The Cfg's succ edges are intraprocedural: a call block steps over the
// callee straight to its return site. Several ladder rungs (time-windowed
// symbol liveness, allocation-site heap liveness) instead need "where can
// control actually flow next":
//   * a call block flows into its callee's entry (NOT its return site —
//     the continuation is reached through the callee's rets);
//   * a ret block flows to every return site of every function containing
//     it (context-insensitive, like liveness);
//   * indirect transfers flow to every address-taken block;
//   * blocks that leave the modeled world (unknown callees, falling off
//     the segment) are `unbounded`: anything could execute afterwards;
//   * an aborting syscall (exit / assert-fail) terminates the rank, so
//     nothing flows past it.
// Backward reachability over this graph is the core of every "no read is
// forward-reachable from the paused pc" proof.
#pragma once

#include <cstdint>
#include <vector>

#include "svm/analysis/cfg.hpp"

namespace fsim::svm::analysis {

/// True for `sys` words that terminate the rank (exit / assert-fail):
/// control never flows past them, so they end every forward window.
bool aborting_sys(const Instr& in) noexcept;

class ExecGraph {
 public:
  explicit ExecGraph(const Cfg& cfg);

  /// Execution successors of block `id`.
  const std::vector<std::uint32_t>& succ(std::uint32_t id) const noexcept {
    return succ_[id];
  }
  /// Execution predecessors of block `id` (the transpose of succ).
  const std::vector<std::uint32_t>& pred(std::uint32_t id) const noexcept {
    return rev_[id];
  }
  /// True if control can leave the modeled world from block `id` (unknown
  /// callee, indirect target set unknown, falls off the segment). Any
  /// liveness proof must treat such a block as reaching every event.
  bool unbounded(std::uint32_t id) const noexcept { return unbounded_[id]; }

  std::size_t size() const noexcept { return succ_.size(); }

  /// Backward reachability: given per-block seeds (blocks containing an
  /// event of interest), fills `live_out[b]` = an event block is reachable
  /// strictly past b's end, and returns the `live_in` vector (event block
  /// reachable from b's start — i.e. b itself is a seed or live_out[b]).
  /// Unbounded blocks are always seeded.
  std::vector<bool> reach_backward(const std::vector<bool>& seeds,
                                   std::vector<bool>& live_out) const;

 private:
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::vector<std::uint32_t>> rev_;
  std::vector<bool> unbounded_;
};

}  // namespace fsim::svm::analysis

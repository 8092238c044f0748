#include "svm/analysis/fpdepth_ctx.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "svm/analysis/defuse.hpp"
#include "svm/analysis/execgraph.hpp"

namespace fsim::svm::analysis {

namespace {

constexpr int kMaxDepth = static_cast<int>(kNumFpr);

/// Canonical "know nothing" state: reachable, but no slot proof possible.
constexpr DepthBounds top_state() noexcept {
  return DepthBounds{0, static_cast<std::int8_t>(kMaxDepth), false, true};
}

/// A depth clamped into [lo, kMaxDepth].
std::int8_t clamp_depth(int d, int lo = 0) noexcept {
  return static_cast<std::int8_t>(std::clamp(d, lo, kMaxDepth));
}

/// Transfer one instruction's effect. Any possible underflow or overflow
/// breaks the anchor, and unanchored states widen to TOP (TOP is a fixed
/// point of this function, so blocks entered mid-way through an indirect
/// jump are covered by seeding TOP at their head).
DepthBounds apply(DepthBounds s, const RegEffect& e) noexcept {
  if (e.fp_needs > s.lo) s.anchored = false;  // possible underflow
  if (s.hi + e.fp_delta > kMaxDepth) s.anchored = false;  // possible overflow
  if (!s.anchored) return top_state();
  s.lo = clamp_depth(s.lo + e.fp_delta);
  s.hi = clamp_depth(s.hi + e.fp_delta);
  return s;
}

DepthBounds join(const DepthBounds& a, const DepthBounds& b) noexcept {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  if (!(a.anchored && b.anchored)) return top_state();
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), true, true};
}

/// Relative depth interval during summary construction (entry = 0; can dip
/// below zero when a function consumes caller-owned slots).
struct Rel {
  bool reach = false;
  int lo = 0, hi = 0;
};

/// Block id -> index into `fn.blocks` (the intraprocedural closure).
std::unordered_map<std::uint32_t, std::uint32_t> local_index(
    const Cfg::Function& fn) {
  std::unordered_map<std::uint32_t, std::uint32_t> local;
  local.reserve(fn.blocks.size());
  for (std::uint32_t i = 0; i < fn.blocks.size(); ++i)
    local.emplace(fn.blocks[i], i);
  return local;
}

}  // namespace

FpDepthCtx::FpDepthCtx(const Cfg& cfg)
    : cfg_(&cfg),
      summaries_(cfg.functions().size()),
      entry_in_(cfg.functions().size()),
      instr_in_(cfg.num_instructions()) {
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f)
    if (cfg.functions()[f].entry != Cfg::kNoBlock)
      fn_of_entry_.emplace(cfg.functions()[f].entry, f);
  for (std::uint32_t id = 0; id < cfg.blocks().size(); ++id) {
    const Block& b = cfg.block(id);
    if (cfg.reachable_block(id) && (b.term == FlowKind::kIndirectCall ||
                                    b.term == FlowKind::kIndirectJump)) {
      has_indirect_ = true;
      break;
    }
  }
  summarize_all();
  solve_entries();
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f)
    if (entry_in_[f].reachable) walk(f, nullptr, true);
  diagnose();
}

std::uint32_t FpDepthCtx::callee_of(const Block& b) const {
  if (b.call_target < 0 || b.call_outside || b.bad_target) return Cfg::kNoBlock;
  auto it = fn_of_entry_.find(static_cast<std::uint32_t>(b.call_target));
  return it == fn_of_entry_.end() ? Cfg::kNoBlock : it->second;
}

void FpDepthCtx::walk(
    std::uint32_t f,
    std::vector<std::pair<std::uint32_t, DepthBounds>>* callee_seen,
    bool record) {
  const Cfg& cfg = *cfg_;
  const Cfg::Function& fn = cfg.functions()[f];
  const auto local = local_index(fn);
  std::vector<DepthBounds> in(fn.blocks.size());

  std::deque<std::uint32_t> work;
  std::vector<bool> queued(fn.blocks.size(), false);
  auto propagate = [&](std::uint32_t block_id, DepthBounds s) {
    auto it = local.find(block_id);
    if (it == local.end()) return;  // outside the intraprocedural closure
    s.reachable = true;
    const DepthBounds merged = join(in[it->second], s);
    if (merged == in[it->second]) return;
    in[it->second] = merged;
    if (!queued[it->second]) {
      queued[it->second] = true;
      work.push_back(it->second);
    }
  };

  propagate(fn.entry, entry_in_[f]);
  // With a reachable indirect transfer anywhere, any materialised code
  // address can be entered at arbitrary depth.
  if (has_indirect_) {
    for (Addr a : cfg.materialized()) {
      const std::uint32_t id = cfg.block_index_of(a);
      if (id != Cfg::kNoBlock) propagate(id, top_state());
    }
  }

  while (!work.empty()) {
    const std::uint32_t li = work.front();
    work.pop_front();
    queued[li] = false;
    const Block& b = cfg.block(fn.blocks[li]);
    DepthBounds s = in[li];
    bool aborted = false;
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      const std::uint32_t i = record ? cfg.instr_index(pc) : Cfg::kNoBlock;
      if (i != Cfg::kNoBlock) instr_in_[i] = join(instr_in_[i], s);
      if (aborting_sys(decode(word))) {
        aborted = true;
        break;
      }
      s = apply(s, instr_effect(word, DefUseModel::kSound));
    }
    if (aborted) continue;

    switch (b.term) {
      case FlowKind::kCall: {
        const std::uint32_t callee = callee_of(b);
        if (callee == Cfg::kNoBlock) {
          // Unknown callee: assume nothing about the returned depth.
          for (std::uint32_t t : b.succ) propagate(t, top_state());
          break;
        }
        if (callee_seen != nullptr) callee_seen->emplace_back(callee, s);
        const FnSummary& g = summaries_[callee];
        DepthBounds post = top_state();
        if (s.anchored && g.valid && g.needs <= s.lo &&
            s.hi + g.peak <= kMaxDepth) {
          // No under/overflow inside the callee at this context.
          if (!g.has_ret) break;  // callee never returns (aborts on every path)
          post = {clamp_depth(s.lo + g.dlo), clamp_depth(s.hi + g.dhi), true,
                  true};
        }
        for (std::uint32_t t : b.succ) propagate(t, post);
        break;
      }
      case FlowKind::kIndirectCall:
        // Possible callees are covered by the address-taken TOP seeds.
        for (std::uint32_t t : b.succ) propagate(t, top_state());
        break;
      case FlowKind::kRet:        // callers apply this function's summary
      case FlowKind::kIndirectJump:  // targets covered by TOP seeds
      case FlowKind::kIllegal:       // traps; nothing flows past it
        break;
      default:
        for (std::uint32_t t : b.succ) propagate(t, s);
        break;
    }
  }
}

void FpDepthCtx::summarize_all() {
  // 0 = unvisited, 1 = on the DFS stack (recursion), 2 = done.
  std::vector<std::uint8_t> state(cfg_->functions().size(), 0);
  for (std::uint32_t f = 0; f < cfg_->functions().size(); ++f)
    summarize(f, state);
}

bool FpDepthCtx::summarize(std::uint32_t fn_idx,
                           std::vector<std::uint8_t>& state) {
  if (state[fn_idx] == 2) return summaries_[fn_idx].valid;
  if (state[fn_idx] == 1) return false;  // recursion: not composable
  state[fn_idx] = 1;

  const Cfg& cfg = *cfg_;
  const Cfg::Function& fn = cfg.functions()[fn_idx];
  const auto local = local_index(fn);

  // Resolve callee summaries first (DFS); any unresolvable or invalid
  // callee, indirect transfer or fall-off-the-end makes this function
  // unsummarizable — its return sites then get unanchored TOP.
  bool ok = fn.entry != Cfg::kNoBlock;
  for (std::uint32_t id : fn.blocks) {
    const Block& b = cfg.block(id);
    if (b.falls_off_end) ok = false;
    switch (b.term) {
      case FlowKind::kIndirectCall:
      case FlowKind::kIndirectJump:
        ok = false;
        break;
      case FlowKind::kCall: {
        const std::uint32_t callee = callee_of(b);
        if (callee == Cfg::kNoBlock || !summarize(callee, state)) ok = false;
        break;
      }
      default:
        break;
    }
    if (!ok) break;
  }

  FnSummary sum;
  if (ok) {
    // Intraprocedural fixpoint over *relative* depth intervals. Entry
    // depth is unknown here, so the interval is unclamped and may dip
    // below zero; anything outside [-8, 8] is dynamically impossible for
    // a balanced function and voids the summary. Every call block now
    // names a callee with a valid summary.
    std::vector<Rel> in(fn.blocks.size());
    std::deque<std::uint32_t> work;
    std::vector<bool> queued(fn.blocks.size(), false);
    auto propagate = [&](std::uint32_t block_id, Rel s) {
      auto it = local.find(block_id);
      if (it == local.end()) return;
      Rel& cur = in[it->second];
      const Rel next =
          cur.reach ? Rel{true, std::min(cur.lo, s.lo), std::max(cur.hi, s.hi)}
                    : Rel{true, s.lo, s.hi};
      if (cur.reach && next.lo == cur.lo && next.hi == cur.hi) return;
      cur = next;
      if (!queued[it->second]) {
        queued[it->second] = true;
        work.push_back(it->second);
      }
    };
    propagate(fn.entry, Rel{true, 0, 0});

    bool ret_seen = false;
    int rlo = 0, rhi = 0;
    while (ok && !work.empty()) {
      const std::uint32_t li = work.front();
      work.pop_front();
      queued[li] = false;
      const Block& b = cfg.block(fn.blocks[li]);
      Rel s = in[li];
      bool aborted = false;
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        if (aborting_sys(decode(word))) {
          aborted = true;
          break;
        }
        const RegEffect e = instr_effect(word, DefUseModel::kSound);
        s.lo += e.fp_delta;
        s.hi += e.fp_delta;
        if (s.lo < -kMaxDepth || s.hi > kMaxDepth) {
          ok = false;
          break;
        }
      }
      if (!ok || aborted) continue;

      if (b.term == FlowKind::kCall) {
        const FnSummary& g = summaries_[callee_of(b)];
        if (!g.has_ret) continue;  // the callee never returns
        s.lo += g.dlo;
        s.hi += g.dhi;
        if (s.lo < -kMaxDepth || s.hi > kMaxDepth) {
          ok = false;
          continue;
        }
        for (std::uint32_t t : b.succ) propagate(t, s);
      } else if (b.term == FlowKind::kRet) {
        rlo = ret_seen ? std::min(rlo, s.lo) : s.lo;
        rhi = ret_seen ? std::max(rhi, s.hi) : s.hi;
        ret_seen = true;
      } else if (b.term == FlowKind::kIllegal) {
        // traps; nothing flows past it
      } else {
        for (std::uint32_t t : b.succ) propagate(t, s);
      }
    }

    if (ok) {
      // Second pass over the stable states: entry-depth requirement and
      // peak relative height, composing callee summaries at call sites.
      int needs = 0, peak = 0;
      for (std::uint32_t li = 0; li < fn.blocks.size(); ++li) {
        if (!in[li].reach) continue;
        const Block& b = cfg.block(fn.blocks[li]);
        Rel s = in[li];
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const std::uint32_t word = cfg.word_at(pc);
          if (aborting_sys(decode(word))) break;
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          needs = std::max(needs, e.fp_needs - s.lo);
          s.lo += e.fp_delta;
          s.hi += e.fp_delta;
          peak = std::max(peak, s.hi);
        }
        if (b.term == FlowKind::kCall) {
          const FnSummary& g = summaries_[callee_of(b)];
          needs = std::max(needs, g.needs - s.lo);
          peak = std::max(peak, s.hi + g.peak);
        }
      }
      sum.valid = true;
      sum.has_ret = ret_seen;
      sum.dlo = clamp_depth(rlo, -kMaxDepth);
      sum.dhi = clamp_depth(rhi, -kMaxDepth);
      sum.needs = clamp_depth(needs);
      sum.peak = clamp_depth(peak);
    }
  }

  summaries_[fn_idx] = sum;
  state[fn_idx] = 2;
  return sum.valid;
}

void FpDepthCtx::solve_entries() {
  const Cfg& cfg = *cfg_;
  if (cfg.functions().empty() || cfg.entry_block() == Cfg::kNoBlock) return;

  std::deque<std::uint32_t> work;
  std::vector<bool> queued(cfg.functions().size(), false);
  auto enqueue = [&](std::uint32_t f) {
    if (!queued[f]) {
      queued[f] = true;
      work.push_back(f);
    }
  };

  if (auto it = fn_of_entry_.find(cfg.entry_block());
      it != fn_of_entry_.end()) {
    entry_in_[it->second] = DepthBounds{0, 0, true, true};
    enqueue(it->second);
  }
  if (has_indirect_) {
    for (std::uint32_t f = 0; f < cfg.functions().size(); ++f) {
      if (!cfg.functions()[f].address_taken) continue;
      entry_in_[f] = join(entry_in_[f], top_state());
      enqueue(f);
    }
  }

  while (!work.empty()) {
    const std::uint32_t f = work.front();
    work.pop_front();
    queued[f] = false;
    std::vector<std::pair<std::uint32_t, DepthBounds>> callees;
    walk(f, &callees, false);
    for (auto& [g, s] : callees) {
      s.reachable = true;
      const DepthBounds merged = join(entry_in_[g], s);
      if (!(merged == entry_in_[g])) {
        entry_in_[g] = merged;
        enqueue(g);
      }
    }
  }
}

void FpDepthCtx::diagnose() {
  const Cfg& cfg = *cfg_;
  int max_hi = 0;
  bool all_anchored = true;
  bool any_reachable = false;

  for (const Block& b : cfg.blocks()) {
    bool issued = false;  // depths past a block's first issue are junk
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t index = cfg.instr_index(pc);
      if (index == Cfg::kNoBlock || !instr_in_[index].reachable) break;
      const DepthBounds s = instr_in_[index];
      any_reachable = true;
      if (s.anchored) {
        max_hi = std::max(max_hi, static_cast<int>(s.hi));
      } else {
        all_anchored = false;
      }
      const std::uint32_t word = cfg.word_at(pc);
      const Instr in = decode(word);
      if (aborting_sys(in)) break;
      if (!s.anchored || issued) continue;
      const RegEffect e = instr_effect(word, DefUseModel::kSound);
      const std::string op = mnemonic(in.op);
      issued = true;
      if (e.fp_needs > s.hi) {
        issues_.push_back(
            {true, "fp-static-underflow", pc,
             op + " needs FP-stack depth " + std::to_string(e.fp_needs) +
                 " but every reaching path has at most " +
                 std::to_string(s.hi)});
      } else if (s.lo + e.fp_delta > kMaxDepth) {
        issues_.push_back(
            {true, "fp-static-overflow", pc,
             op + " pushes the FP stack to " +
                 std::to_string(s.lo + e.fp_delta) + " slots on every " +
                 "reaching path (absolute depth, including callers)"});
      } else if (s.hi + e.fp_delta > kMaxDepth) {
        issues_.push_back(
            {false, "fp-static-maybe-overflow", pc,
             op + " may push the FP stack to " +
                 std::to_string(s.hi + e.fp_delta) + " slots (entry depth [" +
                 std::to_string(s.lo) + "," + std::to_string(s.hi) + "])"});
      } else {
        issued = false;
      }
    }
  }

  // A function whose reachable, anchored entry depth differs across call
  // sites is suspicious if it actually touches the FP stack: the same body
  // runs at different absolute depths, so its headroom depends on the
  // caller.
  auto touches_fp = [&](const Cfg::Function& fn) {
    for (std::uint32_t bid : fn.blocks) {
      for (Addr pc = cfg.block(bid).begin; pc < cfg.block(bid).end; pc += 4) {
        const RegEffect e = instr_effect(cfg.word_at(pc), DefUseModel::kSound);
        if (e.fp_delta != 0 || e.fp_needs != 0) return true;
      }
    }
    return false;
  };
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f) {
    const Cfg::Function& fn = cfg.functions()[f];
    const DepthBounds s = entry_in_[f];
    if (!s.reachable || !s.anchored || s.lo == s.hi) continue;
    if (fn.entry == Cfg::kNoBlock || fn.entry == cfg.entry_block()) continue;
    if (!touches_fp(fn)) continue;
    issues_.push_back(
        {false, "fp-call-depth-imbalance", cfg.block(fn.entry).begin,
         "called at FP-stack depths between " + std::to_string(s.lo) +
             " and " + std::to_string(s.hi) +
             " while operating on the FP stack"});
  }

  std::sort(issues_.begin(), issues_.end(),
            [](const FpDepthIssue& a, const FpDepthIssue& b) {
              if (a.addr != b.addr) return a.addr < b.addr;
              return a.code < b.code;
            });

  max_depth_ = all_anchored ? static_cast<unsigned>(max_hi) : kNumFpr;
  always_empty_ = any_reachable && all_anchored ? kNumFpr - max_depth_ : 0;
}

DepthBounds FpDepthCtx::bounds_at(Addr pc) const noexcept {
  const std::uint32_t index = cfg_->instr_index(pc);
  if (index == Cfg::kNoBlock) return DepthBounds{0, kNumFpr, false, false};
  return instr_in_[index];
}

bool FpDepthCtx::slot_empty_at(Addr pc, unsigned phys) const noexcept {
  if (phys >= kNumFpr) return false;
  const DepthBounds s = bounds_at(pc);
  return s.reachable && s.anchored &&
         phys + static_cast<unsigned>(s.hi) < kNumFpr;
}

}  // namespace fsim::svm::analysis

#include "svm/analysis/fpdepth_ctx.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "svm/analysis/defuse.hpp"
#include "svm/analysis/execgraph.hpp"

namespace fsim::svm::analysis {

namespace {

constexpr int kMaxDepth = static_cast<int>(kNumFpr);

constexpr DepthBounds top_state() noexcept {
  return DepthBounds{0, static_cast<std::int8_t>(kMaxDepth), false, true};
}

DepthBounds apply(DepthBounds s, const RegEffect& e) noexcept {
  if (e.fp_needs > s.lo) s.anchored = false;
  int lo = s.lo + e.fp_delta;
  int hi = s.hi + e.fp_delta;
  if (hi > kMaxDepth) s.anchored = false;
  lo = std::clamp(lo, 0, kMaxDepth);
  hi = std::clamp(hi, 0, kMaxDepth);
  if (!s.anchored) return top_state();
  s.lo = static_cast<std::int8_t>(lo);
  s.hi = static_cast<std::int8_t>(hi);
  return s;
}

DepthBounds join(const DepthBounds& a, const DepthBounds& b) noexcept {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  if (!(a.anchored && b.anchored)) return top_state();
  DepthBounds m;
  m.lo = std::min(a.lo, b.lo);
  m.hi = std::max(a.hi, b.hi);
  m.anchored = true;
  m.reachable = true;
  return m;
}

bool same(const DepthBounds& a, const DepthBounds& b) noexcept {
  return a.lo == b.lo && a.hi == b.hi && a.anchored == b.anchored &&
         a.reachable == b.reachable;
}

/// Relative depth interval during summary construction (entry = 0; can dip
/// below zero when a function consumes caller-owned slots).
struct Rel {
  bool reach = false;
  int lo = 0, hi = 0;
};

/// Map from function entry block id to function index.
std::unordered_map<std::uint32_t, std::uint32_t> entry_map(const Cfg& cfg) {
  std::unordered_map<std::uint32_t, std::uint32_t> m;
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f) {
    const std::uint32_t e = cfg.functions()[f].entry;
    if (e != Cfg::kNoBlock) m.emplace(e, f);
  }
  return m;
}

/// One interior (intraprocedural) absolute fixpoint of `fn` from
/// `entry_state`, applying callee summaries at call terminators. Reports
/// the pre-call state of every resolvable call site through `callee_seen`
/// and, when `instr_in` is given, joins the per-instruction states into it.
void interior_walk(
    const Cfg& cfg, const std::vector<FpDepthCtx::FnSummary>& summaries,
    const std::unordered_map<std::uint32_t, std::uint32_t>& fn_of_entry,
    bool has_indirect, const Cfg::Function& fn, const DepthBounds& entry_state,
    std::vector<std::pair<std::uint32_t, DepthBounds>>* callee_seen,
    std::vector<DepthBounds>* instr_in) {
  std::unordered_map<std::uint32_t, std::uint32_t> local;
  local.reserve(fn.blocks.size());
  for (std::uint32_t i = 0; i < fn.blocks.size(); ++i)
    local.emplace(fn.blocks[i], i);
  std::vector<DepthBounds> in(fn.blocks.size());

  std::deque<std::uint32_t> work;
  std::vector<bool> queued(fn.blocks.size(), false);
  auto enqueue = [&](std::uint32_t li) {
    if (!queued[li]) {
      queued[li] = true;
      work.push_back(li);
    }
  };
  auto propagate = [&](std::uint32_t block_id, DepthBounds s) {
    auto it = local.find(block_id);
    if (it == local.end()) return;  // outside the intraprocedural closure
    s.reachable = true;
    const DepthBounds merged = join(in[it->second], s);
    if (!same(merged, in[it->second])) {
      in[it->second] = merged;
      enqueue(it->second);
    }
  };

  propagate(fn.entry, entry_state);
  // Mirror fpdepth.cpp: with a reachable indirect transfer anywhere, any
  // materialised code address can be entered at arbitrary depth.
  if (has_indirect) {
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
      if (instr_in != nullptr) {
        const std::uint32_t index = cfg.instr_index(pc);
        if (index != Cfg::kNoBlock)
          (*instr_in)[index] = join((*instr_in)[index], s);
      }
      if (aborting_sys(decode(word))) {
        aborted = true;
        break;
      }
      s = apply(s, instr_effect(word, DefUseModel::kSound));
    }
    if (aborted) continue;

    switch (b.term) {
      case FlowKind::kCall: {
        std::uint32_t callee = Cfg::kNoBlock;
        if (b.call_target >= 0 && !b.call_outside && !b.bad_target) {
          auto it = fn_of_entry.find(static_cast<std::uint32_t>(b.call_target));
          if (it != fn_of_entry.end()) callee = it->second;
        }
        if (callee == Cfg::kNoBlock) {
          // Unknown callee: assume nothing about the returned depth.
          for (std::uint32_t t : b.succ) propagate(t, top_state());
          break;
        }
        if (callee_seen != nullptr) callee_seen->emplace_back(callee, s);
        const FpDepthCtx::FnSummary& g = summaries[callee];
        DepthBounds post = top_state();
        bool returns = true;
        if (s.anchored && g.valid) {
          if (g.needs > s.lo || s.hi + g.peak > kMaxDepth) {
            // Possible under/overflow inside the callee at this context.
            post = top_state();
          } else if (!g.has_ret) {
            returns = false;  // callee never returns (aborts on every path)
          } else {
            post.lo = static_cast<std::int8_t>(
                std::clamp(s.lo + g.dlo, 0, kMaxDepth));
            post.hi = static_cast<std::int8_t>(
                std::clamp(s.hi + g.dhi, 0, kMaxDepth));
            post.anchored = true;
            post.reachable = true;
          }
        }
        if (returns)
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

}  // namespace

FpDepthCtx::FpDepthCtx(const Cfg& cfg)
    : cfg_(&cfg),
      summaries_(cfg.functions().size()),
      entry_in_(cfg.functions().size()),
      instr_in_(cfg.num_instructions()) {
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
  finalize();
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
  const auto fn_of_entry = entry_map(cfg);

  std::unordered_map<std::uint32_t, std::uint32_t> local;
  local.reserve(fn.blocks.size());
  for (std::uint32_t i = 0; i < fn.blocks.size(); ++i)
    local.emplace(fn.blocks[i], i);

  // Resolve callee summaries first (DFS); any unresolvable or invalid
  // callee, indirect transfer or fall-off-the-end makes this function
  // unsummarizable — callers then fall back to the insensitive analysis.
  bool ok = fn.entry != Cfg::kNoBlock;
  std::unordered_map<std::uint32_t, std::uint32_t> callee_of_block;
  for (std::uint32_t id : fn.blocks) {
    const Block& b = cfg.block(id);
    if (b.falls_off_end) ok = false;
    switch (b.term) {
      case FlowKind::kIndirectCall:
      case FlowKind::kIndirectJump:
        ok = false;
        break;
      case FlowKind::kCall: {
        std::uint32_t callee = Cfg::kNoBlock;
        if (b.call_target >= 0 && !b.call_outside && !b.bad_target) {
          auto it = fn_of_entry.find(static_cast<std::uint32_t>(b.call_target));
          if (it != fn_of_entry.end()) callee = it->second;
        }
        if (callee == Cfg::kNoBlock || !summarize(callee, state))
          ok = false;
        else
          callee_of_block.emplace(id, callee);
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
    // a balanced function and voids the summary.
    std::vector<Rel> in(fn.blocks.size());
    std::deque<std::uint32_t> work;
    std::vector<bool> queued(fn.blocks.size(), false);
    auto enqueue = [&](std::uint32_t li) {
      if (!queued[li]) {
        queued[li] = true;
        work.push_back(li);
      }
    };
    auto propagate = [&](std::uint32_t block_id, Rel s) {
      auto it = local.find(block_id);
      if (it == local.end()) return;
      Rel& cur = in[it->second];
      if (!cur.reach) {
        cur = s;
        cur.reach = true;
        enqueue(it->second);
        return;
      }
      const int lo = std::min(cur.lo, s.lo), hi = std::max(cur.hi, s.hi);
      if (lo != cur.lo || hi != cur.hi) {
        cur.lo = lo;
        cur.hi = hi;
        enqueue(it->second);
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
        auto it = callee_of_block.find(fn.blocks[li]);
        if (it == callee_of_block.end()) {
          ok = false;
          continue;
        }
        const FnSummary& g = summaries_[it->second];
        if (!g.has_ret) continue;  // the callee never returns
        s.lo += g.dlo;
        s.hi += g.dhi;
        if (s.lo < -kMaxDepth || s.hi > kMaxDepth) {
          ok = false;
          continue;
        }
        for (std::uint32_t t : b.succ) propagate(t, s);
      } else if (b.term == FlowKind::kRet) {
        if (!ret_seen) {
          ret_seen = true;
          rlo = s.lo;
          rhi = s.hi;
        } else {
          rlo = std::min(rlo, s.lo);
          rhi = std::max(rhi, s.hi);
        }
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
          auto it = callee_of_block.find(fn.blocks[li]);
          if (it != callee_of_block.end()) {
            const FnSummary& g = summaries_[it->second];
            needs = std::max(needs, g.needs - s.lo);
            peak = std::max(peak, s.hi + g.peak);
          }
        }
      }
      sum.valid = true;
      sum.has_ret = ret_seen;
      sum.dlo = static_cast<std::int8_t>(std::clamp(rlo, -kMaxDepth, kMaxDepth));
      sum.dhi = static_cast<std::int8_t>(std::clamp(rhi, -kMaxDepth, kMaxDepth));
      sum.needs =
          static_cast<std::int8_t>(std::clamp(needs, 0, kMaxDepth));
      sum.peak = static_cast<std::int8_t>(std::clamp(peak, 0, kMaxDepth));
    }
  }

  summaries_[fn_idx] = sum;
  state[fn_idx] = 2;
  return sum.valid;
}

void FpDepthCtx::solve_entries() {
  const Cfg& cfg = *cfg_;
  if (cfg.functions().empty() || cfg.entry_block() == Cfg::kNoBlock) return;
  const auto fn_of_entry = entry_map(cfg);

  std::deque<std::uint32_t> work;
  std::vector<bool> queued(cfg.functions().size(), false);
  auto enqueue = [&](std::uint32_t f) {
    if (!queued[f]) {
      queued[f] = true;
      work.push_back(f);
    }
  };

  if (auto it = fn_of_entry.find(cfg.entry_block()); it != fn_of_entry.end()) {
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
    interior_walk(cfg, summaries_, fn_of_entry, has_indirect_,
                  cfg.functions()[f], entry_in_[f], &callees, nullptr);
    for (auto& [g, s] : callees) {
      DepthBounds seed = s;
      seed.reachable = true;
      const DepthBounds merged = join(entry_in_[g], seed);
      if (!same(merged, entry_in_[g])) {
        entry_in_[g] = merged;
        enqueue(g);
      }
    }
  }
}

void FpDepthCtx::finalize() {
  const Cfg& cfg = *cfg_;
  const auto fn_of_entry = entry_map(cfg);
  for (std::uint32_t f = 0; f < cfg.functions().size(); ++f) {
    if (!entry_in_[f].reachable) continue;
    interior_walk(cfg, summaries_, fn_of_entry, has_indirect_,
                  cfg.functions()[f], entry_in_[f], nullptr, &instr_in_);
  }
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

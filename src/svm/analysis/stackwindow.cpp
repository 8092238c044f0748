#include "svm/analysis/stackwindow.hpp"

#include <algorithm>
#include <deque>

#include "svm/analysis/defuse.hpp"

namespace fsim::svm::analysis {

namespace {

// The three helpers below apply to ops with a [rB + simm] memory operand.
bool fp_mem_base(const Instr& in) noexcept {
  return op_info(in.op).mem_operand() && in.b == kFp;
}

int access_bytes(const Instr& in) noexcept { return op_info(in.op).width; }

bool is_read(const Instr& in) noexcept {
  return op_info(in.op).access == Access::kLoad;
}

}  // namespace

StackWindow::StackWindow(const Cfg& cfg, const MemLiveness& mem)
    : cfg_(&cfg) {
  enabled_ = !cfg.blocks().empty();
  if (enabled_) scan(cfg, mem);
  if (!enabled_) {
    eligible_.clear();
    fn_of_block_.clear();
    for (FrameWindowInfo& f : frames_) f.eligible = false;
  }
}

void StackWindow::disable(std::string reason) {
  if (enabled_) {
    enabled_ = false;
    reason_ = std::move(reason);
  }
}

void StackWindow::scan(const Cfg& cfg, const MemLiveness& mem) {
  const auto& blocks = cfg.blocks();
  const std::uint16_t sp_bit = reg_bit(kSp);
  const std::uint16_t fp_bit = reg_bit(kFp);

  // --- Global instruction gates over all reachable code ---
  for (std::uint32_t id = 0; id < blocks.size(); ++id) {
    if (!cfg.reachable_block(id)) continue;
    const Block& b = blocks[id];
    if (b.term == FlowKind::kIndirectJump)
      disable("reachable indirect jump: intraprocedural flow unboundable");
    if (b.falls_off_end)
      disable("reachable code runs off a segment end");
    const bool orphan = cfg.functions_of(id).empty();
    for (Addr pc = b.begin; pc < b.end; pc += 4) {
      const std::uint32_t word = cfg.word_at(pc);
      const Instr in = decode(word);
      switch (in.op) {
        case Op::kPush:
        case Op::kPop:
          // push fp is a per-function escape (MemLiveness); push/pop of sp
          // itself would forge or clobber the walker's chain.
          if (in.a == kSp) disable("sp pushed or popped");
          break;
        case Op::kCall:
        case Op::kCallr:
        case Op::kRet:
        case Op::kEnter:
        case Op::kLeave:
          break;  // the frame discipline itself
        default: {
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          if (((e.use | e.def) & sp_bit) != 0)
            disable("sp leaves the push/call/enter bookkeeping");
          if (orphan && ((e.use | e.def) & fp_bit) != 0)
            disable("fp touched outside any detected function");
          break;
        }
      }
    }
  }

  // --- Per-function gates, eligibility and windows ---
  std::map<Addr, const StackFrameAccess*> fa_of;
  for (const StackFrameAccess& fa : mem.frames()) fa_of[fa.entry] = &fa;

  for (const Cfg::Function& fn : cfg.functions()) {
    if (fn.entry == Cfg::kNoBlock) continue;
    const Addr entry_addr = cfg.block(fn.entry).begin;
    auto fa_it = fa_of.find(entry_addr);
    const StackFrameAccess* fa =
        fa_it == fa_of.end() ? nullptr : fa_it->second;
    const bool fp_involved =
        fa != nullptr && (fa->escaped || !fa->read_offsets.empty() ||
                          !fa->write_offsets.empty());

    // E1: a single `enter imm` as the very first instruction.
    int enters = 0;
    for (std::uint32_t bid : fn.blocks) {
      const Block& b = cfg.block(bid);
      for (Addr pc = b.begin; pc < b.end; pc += 4)
        if (decode(cfg.word_at(pc)).op == Op::kEnter) ++enters;
    }
    const Instr first = decode(cfg.word_at(entry_addr));
    const bool framed = enters == 1 && first.op == Op::kEnter;
    const std::uint32_t frame_size = framed ? first.imm : 0;
    if (fp_involved && !framed) {
      disable("fp used in a function without a single well-defined enter");
      return;
    }

    // E3: enter-depth per block (0 before the prologue / after the
    // epilogue, 1 inside the frame window). Joins must agree.
    std::map<std::uint32_t, int> depth_in;
    bool depth_ok = true;
    if (framed) {
      depth_in[fn.entry] = 0;
      std::deque<std::uint32_t> work{fn.entry};
      const std::set<std::uint32_t> fnset(fn.blocks.begin(), fn.blocks.end());
      while (!work.empty()) {
        const std::uint32_t bid = work.front();
        work.pop_front();
        int d = depth_in[bid];
        const Block& b = cfg.block(bid);
        for (Addr pc = b.begin; pc < b.end; pc += 4)
          d += op_info(decode(cfg.word_at(pc)).op).frame_delta;
        if (d < 0 || d > 1) {
          depth_ok = false;
          break;
        }
        for (std::uint32_t s : b.succ) {
          if (fnset.count(s) == 0) continue;
          auto [it, inserted] = depth_in.try_emplace(s, d);
          if (inserted)
            work.push_back(s);
          else if (it->second != d)
            depth_ok = false;
        }
      }
    }

    // Gate every fp access: inside the depth-1 window, negative offset,
    // within the function's own frame. Anything else is an access to some
    // other activation's memory and poisons attribution globally.
    for (std::uint32_t bid : fn.blocks) {
      const Block& b = cfg.block(bid);
      auto dit = depth_in.find(bid);
      int d = dit == depth_in.end() ? -1 : dit->second;
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        const Instr in = decode(word);
        bool touches_fp = fp_mem_base(in);
        if (!touches_fp && in.op != Op::kEnter && in.op != Op::kLeave) {
          const RegEffect e = instr_effect(word, DefUseModel::kSound);
          touches_fp = ((e.use | e.def) & fp_bit) != 0;
        }
        if (touches_fp) {
          if (!framed || !depth_ok || d != 1) {
            disable("fp touched outside its own frame window");
            return;
          }
          if (fp_mem_base(in)) {
            const std::int32_t off = in.simm();
            const int n = access_bytes(in);
            if (off >= 0 || off + n > 0 ||
                off < -static_cast<std::int32_t>(frame_size)) {
              disable("fp-relative access outside the local frame span");
              return;
            }
          }
        }
        d += op_info(in.op).frame_delta;
      }
    }

    // G4: no frame byte may be read before this activation writes it
    // (must-write dataflow, byte granular). Pruned flips park in released
    // stack memory; any later activation re-mapping the address must
    // overwrite before looking, in *every* function.
    if (framed && frame_size > 0 && fa != nullptr &&
        !fa->read_offsets.empty()) {
      std::set<std::int32_t> universe;
      for (std::int32_t o : fa->read_offsets) universe.insert(o);
      for (std::int32_t o : fa->write_offsets) universe.insert(o);
      const std::set<std::uint32_t> fnset(fn.blocks.begin(), fn.blocks.end());
      std::map<std::uint32_t, std::set<std::int32_t>> must_in;
      for (std::uint32_t bid : fn.blocks) must_in[bid] = universe;
      must_in[fn.entry].clear();
      auto written_in = [&](std::uint32_t bid) {
        std::set<std::int32_t> w;
        const Block& b = cfg.block(bid);
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const Instr in = decode(cfg.word_at(pc));
          if (fp_mem_base(in) && !is_read(in))
            for (int i = 0; i < access_bytes(in); ++i)
              w.insert(in.simm() + i);
        }
        return w;
      };
      std::deque<std::uint32_t> work{fn.entry};
      while (!work.empty()) {
        const std::uint32_t bid = work.front();
        work.pop_front();
        std::set<std::int32_t> out = must_in[bid];
        out.merge(written_in(bid));
        for (std::uint32_t s : cfg.block(bid).succ) {
          if (fnset.count(s) == 0) continue;
          std::set<std::int32_t>& in_s = must_in[s];
          std::set<std::int32_t> met;
          std::set_intersection(in_s.begin(), in_s.end(), out.begin(),
                                out.end(), std::inserter(met, met.begin()));
          if (met != in_s) {
            in_s = std::move(met);
            work.push_back(s);
          }
        }
      }
      for (std::uint32_t bid : fn.blocks) {
        std::set<std::int32_t> have = must_in[bid];
        const Block& b = cfg.block(bid);
        for (Addr pc = b.begin; pc < b.end; pc += 4) {
          const Instr in = decode(cfg.word_at(pc));
          if (!fp_mem_base(in)) continue;
          for (int i = 0; i < access_bytes(in); ++i) {
            const std::int32_t o = in.simm() + i;
            if (is_read(in) && have.count(o) == 0) {
              disable("frame byte read before the activation writes it");
              return;
            }
            if (!is_read(in)) have.insert(o);
          }
        }
      }
    }

    // Per-function eligibility for actual pruning.
    bool eligible = framed && frame_size > 0 && depth_ok && fa != nullptr &&
                    !fa->escaped;
    if (eligible)
      for (std::uint32_t bid : fn.blocks)
        if (cfg.functions_of(bid).size() != 1) eligible = false;

    FrameWindowInfo info;
    info.entry = entry_addr;
    if (fn.symbol != nullptr) info.symbol = fn.symbol->name;
    info.frame_size = frame_size;
    info.eligible = eligible;
    if (frame_size > 0 && fa != nullptr) {
      int read_local = 0;
      for (std::int32_t o : fa->read_offsets)
        if (o < 0 && o >= -static_cast<std::int32_t>(frame_size))
          ++read_local;
      info.windowed_bytes = read_local;
      info.never_read_bytes = static_cast<int>(frame_size) - read_local;
    }
    frames_.push_back(info);
    if (!eligible) continue;

    // Build the per-byte activation windows: intraprocedural backward
    // reachability over Block::succ (a call steps to its return site —
    // while the callee runs, this frame sleeps untouched by the gates).
    FnWindows fw;
    fw.frame_size = frame_size;
    fw.entry_depth = depth_in;
    const std::set<std::uint32_t> fnset(fn.blocks.begin(), fn.blocks.end());
    std::map<std::uint32_t, std::vector<std::uint32_t>> rev;
    for (std::uint32_t p : fn.blocks)
      for (std::uint32_t s : cfg.block(p).succ)
        if (fnset.count(s) != 0) rev[s].push_back(p);
    for (const auto& [off, pcs] : fa->read_pcs) {
      if (off >= 0 || off < -static_cast<std::int32_t>(frame_size)) continue;
      OffWindow w;
      std::deque<std::uint32_t> work;
      std::set<std::uint32_t> seen;
      for (Addr rpc : pcs) {
        const std::uint32_t id = cfg.block_index_of(rpc);
        if (id == Cfg::kNoBlock) continue;
        w.reads[id].push_back(rpc);
        if (seen.insert(id).second) work.push_back(id);
      }
      for (auto& [id, rp] : w.reads) {
        std::sort(rp.begin(), rp.end());
        rp.erase(std::unique(rp.begin(), rp.end()), rp.end());
      }
      while (!work.empty()) {
        const std::uint32_t s = work.front();
        work.pop_front();
        auto rit = rev.find(s);
        if (rit == rev.end()) continue;
        for (std::uint32_t p : rit->second) {
          if (w.live_out.insert(p).second && seen.insert(p).second)
            work.push_back(p);
        }
      }
      fw.offsets.emplace(off, std::move(w));
    }
    for (std::uint32_t bid : fn.blocks) fn_of_block_[bid] = fn.entry;
    eligible_.emplace(fn.entry, std::move(fw));
  }

  std::sort(frames_.begin(), frames_.end(),
            [](const FrameWindowInfo& a, const FrameWindowInfo& b) {
              return a.entry < b.entry;
            });
}

bool StackWindow::slot_dead(Addr owner_pc, std::int32_t off) const noexcept {
  if (!enabled_) return false;
  const std::uint32_t bid = cfg_->block_index_of(owner_pc);
  if (bid == Cfg::kNoBlock) return false;
  auto fit = fn_of_block_.find(bid);
  if (fit == fn_of_block_.end()) return false;
  auto eit = eligible_.find(fit->second);
  if (eit == eligible_.end()) return false;
  const FnWindows& fw = eit->second;
  if (off >= 0 || off < -static_cast<std::int32_t>(fw.frame_size))
    return false;  // saved fp / return address / caller's push area
  auto dit = fw.entry_depth.find(bid);
  if (dit == fw.entry_depth.end()) return false;
  int depth = dit->second;
  const Block& b = cfg_->block(bid);
  for (Addr pc = b.begin; pc < owner_pc && pc < b.end; pc += 4)
    depth += op_info(decode(cfg_->word_at(pc)).op).frame_delta;
  if (depth != 1) return false;  // fp does not designate this frame yet
  auto oit = fw.offsets.find(off);
  if (oit == fw.offsets.end()) return true;  // byte never read anywhere
  const OffWindow& w = oit->second;
  if (w.live_out.count(bid) != 0) return false;
  if (auto r = w.reads.find(bid);
      r != w.reads.end() && r->second.back() >= owner_pc)
    return false;
  return true;
}

}  // namespace fsim::svm::analysis

#include "svm/analysis/memliveness.hpp"

#include <algorithm>
#include <cstddef>

#include "svm/analysis/defuse.hpp"

namespace fsim::svm::analysis {

int StackFrameAccess::dead_slots() const noexcept {
  if (escaped) return 0;
  int dead = 0;
  for (std::int32_t o : write_offsets) {
    if (o < 0 && read_offsets.count(o) == 0) ++dead;
  }
  return dead;
}

MemLiveness::MemLiveness(const Cfg& cfg,
                         const std::map<Addr, SymbolAccess>& access)
    : cfg_(&cfg), access_(&access) {
  scan_data_pointers();
  scan_frames();
}

const SymbolAccess* MemLiveness::access_of(Addr addr) const noexcept {
  const Symbol* s = cfg_->program().symbol_covering(addr);
  if (s == nullptr) return nullptr;
  if (s->segment != Segment::kData && s->segment != Segment::kBss)
    return nullptr;
  if (pointer_escaped_.count(s->address) > 0) return nullptr;
  auto it = access_->find(s->address);
  return it == access_->end() ? nullptr : &it->second;
}

bool MemLiveness::data_byte_dead(Addr addr) const noexcept {
  const SymbolAccess* sa = access_of(addr);
  return sa != nullptr && !sa->read && !sa->escaped;
}

void MemLiveness::scan_data_pointers() {
  // A pointer-sized .data word whose value lands inside a data/BSS symbol
  // (a `.word symbol` relocation) publishes that symbol's address: code can
  // load the word and dereference it without any `la` the access scan would
  // see. Treat such symbols as escaped. BSS is zero-filled, so only the
  // initialised data image can carry relocations.
  const Program& prog = cfg_->program();
  const auto& img = prog.image(Segment::kData);
  for (std::size_t i = 0; i + 4 <= img.size(); i += 4) {
    const Addr v = static_cast<Addr>(std::to_integer<std::uint8_t>(img[i])) |
                   static_cast<Addr>(std::to_integer<std::uint8_t>(img[i + 1]))
                       << 8 |
                   static_cast<Addr>(std::to_integer<std::uint8_t>(img[i + 2]))
                       << 16 |
                   static_cast<Addr>(std::to_integer<std::uint8_t>(img[i + 3]))
                       << 24;
    const Symbol* s = prog.symbol_covering(v);
    if (s != nullptr &&
        (s->segment == Segment::kData || s->segment == Segment::kBss) &&
        access_->count(s->address) > 0) {
      pointer_escaped_.insert(s->address);
    }
  }
}

void MemLiveness::scan_frames() {
  const Cfg& cfg = *cfg_;
  for (const Cfg::Function& fn : cfg.functions()) {
    if (fn.entry == Cfg::kNoBlock) continue;
    StackFrameAccess fa;
    fa.entry = cfg.block(fn.entry).begin;
    if (fn.symbol != nullptr) fa.symbol = fn.symbol->name;
    auto touch = [&](std::set<std::int32_t>& set, std::int32_t off, int n) {
      for (int i = 0; i < n; ++i) set.insert(off + i);
    };
    auto touch_read = [&](std::int32_t off, int n, Addr pc) {
      for (int i = 0; i < n; ++i) {
        fa.read_offsets.insert(off + i);
        fa.read_pcs[off + i].push_back(pc);
      }
    };
    for (std::uint32_t bid : fn.blocks) {
      const Block& b = cfg.block(bid);
      for (Addr pc = b.begin; pc < b.end; pc += 4) {
        const std::uint32_t word = cfg.word_at(pc);
        const Instr in = decode(word);
        const OpInfo& op = op_info(in.op);
        if (op.mem_operand()) {
          if (in.b == kFp) {
            if (op.access == Access::kLoad)
              touch_read(in.simm(), op.width, pc);
            else
              touch(fa.write_offsets, in.simm(), op.width);
          }
          // Loading into fp reloads it mid-function; storing fp publishes
          // the frame address.
          if (op.fmt != Fmt::kFMem && in.a == kFp) fa.escaped = true;
          continue;
        }
        switch (in.op) {
          case Op::kEnter:  // pushes the *caller's* fp: not this frame
          case Op::kLeave:  // epilogue restore
            continue;
          case Op::kPush:
            if (in.a == kFp) fa.escaped = true;
            continue;
          case Op::kPop:
            continue;  // epilogue restore path
          default: {
            const RegEffect e = instr_effect(word, DefUseModel::kSound);
            if ((e.use & reg_bit(kFp)) != 0 || (e.def & reg_bit(kFp)) != 0 ||
                e.uses_all) {
              fa.escaped = true;  // fp value computed with / overwritten
            }
            continue;
          }
        }
      }
    }
    frames_.push_back(std::move(fa));
  }
  std::sort(frames_.begin(), frames_.end(),
            [](const StackFrameAccess& a, const StackFrameAccess& b) {
              return a.entry < b.entry;
            });
}

SegmentLiveness MemLiveness::segment(Segment s) const {
  SegmentLiveness out;
  for (const Symbol& sym : cfg_->program().symbols()) {
    if (sym.segment != s) continue;
    auto it = access_->find(sym.address);
    if (it == access_->end()) continue;
    const std::uint32_t bytes = sym.size ? sym.size : 1;
    ++out.symbols;
    out.total_bytes += bytes;
    if (data_byte_dead(sym.address)) {
      ++out.dead_symbols;
      out.dead_bytes += bytes;
    }
  }
  return out;
}

int MemLiveness::dead_stack_slots() const noexcept {
  int total = 0;
  for (const StackFrameAccess& fa : frames_) total += fa.dead_slots();
  return total;
}

}  // namespace fsim::svm::analysis

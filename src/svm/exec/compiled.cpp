#include "svm/exec/compiled.hpp"

#include <cstring>

#include "svm/analysis/cfg.hpp"
#include "svm/memory.hpp"
#include "svm/program.hpp"

namespace fsim::svm::exec {

DOp lower_op(Addr pc, std::uint32_t word) noexcept {
  const Instr in = decode(word);
  DOp d;
  d.raw = word;
  d.simm = in.simm();
  d.imm = in.imm;
  d.a = in.a;
  d.b = in.b;
  d.c = in.c();
  const OpInfo& info = op_info(in.op);
  d.valid = info.valid();
  // The dispatch index is 0 for invalid words, so the threaded table jump
  // lands on the illegal-instruction handler without a separate validity
  // check (a flipped opcode byte can hold any of the 256 values).
  d.op = info.index;
  // Precompute the relative target the same way the interpreter does:
  // int-typed simm*4 folded into the uint32 pc (wrapping mod 2^32).
  d.target = pc + 4 + static_cast<std::uint32_t>(in.simm() * 4);
  return d;
}

namespace {

std::vector<std::uint32_t> segment_words(const Program& program, Segment seg) {
  const auto& img = program.image(seg);
  // Cover the whole mapped segment; a zero-filled tail beyond the static
  // image decodes to invalid ops, exactly as a fetch from it would.
  const std::size_t n = program.segment_size(seg) / 4;
  std::vector<std::uint32_t> words(n, 0);
  if (!img.empty())
    std::memcpy(words.data(), img.data(), std::min(img.size() / 4, n) * 4);
  return words;
}

DOp guard_op() noexcept {
  DOp d;
  d.op = kGuardOp;
  return d;
}

}  // namespace

DOp CompiledProgram::lower_at(std::uint32_t index,
                              std::uint32_t word) const noexcept {
  DOp d = lower_op(addr_of(index), word);
  d.tindex = index_of(d.target);
  return d;
}

CompiledProgram::CompiledProgram(const Program& program) {
  text_base_ = program.segment_base(Segment::kText);
  lib_base_ = program.segment_base(Segment::kLibText);
  text_size_ = program.segment_size(Segment::kText);
  lib_size_ = program.segment_size(Segment::kLibText);
  n_text_ = text_size_ / 4;
  lower_all(segment_words(program, Segment::kText),
            segment_words(program, Segment::kLibText));
  // Without a CFG each text segment is one invalidation granule.
  if (n_text_) blocks_.push_back(BlockRef{0, n_text_});
  const std::uint32_t n_lib = lib_size_ / 4;
  if (n_lib) blocks_.push_back(BlockRef{n_text_ + 1, n_lib});
}

CompiledProgram::CompiledProgram(const Program& program,
                                 const analysis::Cfg& cfg)
    : CompiledProgram(program) {
  // Adopt the CFG's basic blocks as the invalidation granules; they cover
  // every code word, so the per-segment pseudo-blocks are replaced.
  blocks_.clear();
  for (const analysis::Block& b : cfg.blocks()) {
    const std::uint32_t first = index_of(b.begin);
    if (first == kNoIndex) continue;
    blocks_.push_back(BlockRef{first, (b.end - b.begin) / 4});
  }
}

void CompiledProgram::lower_all(const std::vector<std::uint32_t>& text_words,
                                const std::vector<std::uint32_t>& lib_words) {
  // One guard slot terminates each segment's run of ops: straight-line
  // execution past the segment end dispatches to the guard handler, which
  // re-resolves pc instead of reading past the array.
  ops_.resize(text_words.size() + 1 + lib_words.size() + 1);
  for (std::uint32_t i = 0; i < text_words.size(); ++i)
    ops_[i] = lower_at(i, text_words[i]);
  ops_[n_text_] = guard_op();
  for (std::uint32_t i = 0; i < lib_words.size(); ++i)
    ops_[n_text_ + 1 + i] = lower_at(n_text_ + 1 + i, lib_words[i]);
  ops_.back() = guard_op();
}

std::size_t CompiledProgram::repatch(const Memory& mem) {
  const std::span<const std::byte> text = mem.segment_bytes(Segment::kText);
  const std::span<const std::byte> lib = mem.segment_bytes(Segment::kLibText);
  auto word_at = [&](std::uint32_t index) {
    std::uint32_t w = 0;
    if (index < n_text_)
      std::memcpy(&w, text.data() + index * 4, 4);
    else
      std::memcpy(&w, lib.data() + (index - n_text_ - 1) * 4, 4);
    return w;
  };
  std::size_t relowered = 0;
  for (const BlockRef& blk : blocks_) {
    bool dirty = false;
    for (std::uint32_t i = blk.first; i < blk.first + blk.count; ++i) {
      if (ops_[i].raw != word_at(i)) {
        dirty = true;
        break;
      }
    }
    if (!dirty) continue;
    ++relowered;
    for (std::uint32_t i = blk.first; i < blk.first + blk.count; ++i)
      ops_[i] = lower_at(i, word_at(i));
  }
  return relowered;
}

}  // namespace fsim::svm::exec

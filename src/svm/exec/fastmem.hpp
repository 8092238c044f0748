// Flat segment snapshot used by the threaded engine's memory fast path.
//
// A FastMem caches the base/size/data-pointer of every mapped segment so
// loads and stores resolve with a short probe loop (last-hit segment first)
// instead of Memory::locate's enum-order scan. The membership test is
// identical to Memory::locate, so every access traps exactly as the
// interpreter's would.
//
// Every store is also noted in the owning Memory's write track for its
// segment (through a pointer taken at refresh), exactly as Memory's own
// stores are, so snapshots and restores see the same extents and change
// flags under either engine.
//
// Validity: segment extents are fixed at Memory construction and the
// backing storage never moves (pokes and restores write in place), so a
// snapshot stays valid for the Memory's lifetime. `valid()` keys it to the
// owning Memory's address and code version anyway; engines re-`refresh()`
// when either changes (a text poke or a text-changing restore bumps the
// version, forcing a harmless early refresh alongside the repatch).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>

#include "svm/memory.hpp"

namespace fsim::svm::exec {

class FastMem {
 public:
  bool valid(const Memory& m) const noexcept {
    return source_ == &m && version_ == m.code_version();
  }

  void refresh(Memory& m) noexcept {
    for (unsigned i = 0; i < kNumSegments; ++i) {
      const Segment s = kOrder[i];
      const SegmentExtent& e = m.extent(s);
      segs_[i].base = e.base;
      segs_[i].size = e.size;
      segs_[i].data = m.segment_bytes(s).data();
      segs_[i].track = &m.write_track(s);
      segs_[i].exec = s == Segment::kText || s == Segment::kLibText;
    }
    source_ = &m;
    version_ = m.code_version();
  }

  Trap load32(Addr addr, std::uint32_t& out) const noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    const Seg* s = find(addr, 4);
    if (!s) return Trap::kBadAddress;
    std::memcpy(&out, s->data + (addr - s->base), 4);
    return Trap::kNone;
  }
  Trap store32(Addr addr, std::uint32_t value) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    Seg* s = find(addr, 4);
    if (!s) return Trap::kBadAddress;
    if (s->exec) return Trap::kWriteProtected;
    std::memcpy(s->data + (addr - s->base), &value, 4);
    s->track->note(addr - s->base, 4);
    return Trap::kNone;
  }
  Trap load8(Addr addr, std::uint8_t& out) const noexcept {
    const Seg* s = find(addr, 1);
    if (!s) return Trap::kBadAddress;
    out = static_cast<std::uint8_t>(s->data[addr - s->base]);
    return Trap::kNone;
  }
  Trap store8(Addr addr, std::uint8_t value) noexcept {
    Seg* s = find(addr, 1);
    if (!s) return Trap::kBadAddress;
    if (s->exec) return Trap::kWriteProtected;
    s->data[addr - s->base] = static_cast<std::byte>(value);
    s->track->note(addr - s->base, 1);
    return Trap::kNone;
  }
  Trap load64(Addr addr, std::uint64_t& out) const noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    const Seg* s = find(addr, 8);
    if (!s) return Trap::kBadAddress;
    std::memcpy(&out, s->data + (addr - s->base), 8);
    return Trap::kNone;
  }
  Trap store64(Addr addr, std::uint64_t value) noexcept {
    if (addr % 4 != 0) return Trap::kMisaligned;
    Seg* s = find(addr, 8);
    if (!s) return Trap::kBadAddress;
    if (s->exec) return Trap::kWriteProtected;
    std::memcpy(s->data + (addr - s->base), &value, 8);
    s->track->note(addr - s->base, 8);
    return Trap::kNone;
  }

 private:
  struct Seg {
    Addr base = 0;
    std::uint32_t size = 0;
    std::byte* data = nullptr;
    WriteTrack* track = nullptr;
    bool exec = false;
  };

  /// Searched data-segments-first: Memory::locate scans in enum order (text
  /// first), which taxes every load/store; extents are disjoint, so
  /// reordering the scan is semantics-neutral.
  static constexpr Segment kOrder[kNumSegments] = {
      Segment::kStack,   Segment::kData,   Segment::kBss,  Segment::kHeap,
      Segment::kLibData, Segment::kLibBss, Segment::kText, Segment::kLibText};

  // Same membership test as Memory::locate: inside the extent with `bytes`
  // of headroom. Extents are disjoint, so at most one segment matches and
  // probing the last-hit segment first is semantics-neutral.
  Seg* find(Addr addr, unsigned bytes) noexcept {
    Seg& m = segs_[mru_];
    const Addr moff = addr - m.base;
    if (moff < m.size && m.size - moff >= bytes) return &m;
    for (unsigned i = 0; i < kNumSegments; ++i) {
      Seg& s = segs_[i];
      const Addr off = addr - s.base;
      if (off < s.size && s.size - off >= bytes) {
        mru_ = i;
        return &s;
      }
    }
    return nullptr;
  }
  const Seg* find(Addr addr, unsigned bytes) const noexcept {
    return const_cast<FastMem*>(this)->find(addr, bytes);
  }

  std::array<Seg, kNumSegments> segs_{};
  unsigned mru_ = 0;
  const Memory* source_ = nullptr;  // snapshot identity: owner ...
  std::uint64_t version_ = 0;       // ... at this code version
};

}  // namespace fsim::svm::exec

#include "svm/memory.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "util/status.hpp"

namespace fsim::svm {

namespace {

/// Backing stores at least this large are mapped rather than calloc'd.
constexpr std::uint32_t kMapBytes = 64u << 10;

std::byte* allocate_zeroed(std::uint32_t size) {
  void* p = nullptr;
  if (size >= kMapBytes) {
    p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) p = nullptr;
  } else {
    p = std::calloc(size, 1);
  }
  if (p == nullptr) throw std::bad_alloc();
  return static_cast<std::byte*>(p);
}

}  // namespace

void Memory::Release::operator()(std::byte* p) const noexcept {
  if (size >= kMapBytes)
    munmap(p, size);
  else
    std::free(p);
}

Memory::Memory(const std::array<std::uint32_t, kNumSegments>& image_sizes,
               const Config& config) {
  // Lay segments out using the canonical layout shared with the assembler.
  std::array<std::uint32_t, kNumSegments> sizes = image_sizes;
  sizes[static_cast<unsigned>(Segment::kHeap)] = config.heap_capacity;
  sizes[static_cast<unsigned>(Segment::kStack)] = config.stack_capacity;
  const auto bases = compute_segment_bases(sizes, config.stack_capacity);
  for (unsigned i = 0; i < kNumSegments; ++i) {
    extents_[i].base = bases[i];
    extents_[i].size = sizes[i];
    if (sizes[i] == 0) continue;
    bytes_[i] = std::unique_ptr<std::byte[], Release>(
        allocate_zeroed(sizes[i]), Release{sizes[i]});
    changed_[i].assign((sizes[i] + WriteTrack::kBlock - 1) / WriteTrack::kBlock,
                       0);
    track_[i].changed = changed_[i].data();
  }
  // The heap must never collide with the stack reservation.
  const auto& heap = extents_[static_cast<unsigned>(Segment::kHeap)];
  const auto& stack = extents_[static_cast<unsigned>(Segment::kStack)];
  FSIM_CHECK(heap.end() <= stack.base);
}

std::optional<Segment> Memory::resolve(Addr addr) const noexcept {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    if (extents_[i].contains(addr)) return static_cast<Segment>(i);
  }
  return std::nullopt;
}

std::byte* Memory::locate(Addr addr, unsigned size, Segment& seg) noexcept {
  for (unsigned i = 0; i < kNumSegments; ++i) {
    const auto& e = extents_[i];
    if (e.contains(addr) && addr - e.base + size <= e.size) {
      seg = static_cast<Segment>(i);
      return bytes_[i].get() + (addr - e.base);
    }
  }
  return nullptr;
}

const std::byte* Memory::locate(Addr addr, unsigned size,
                                Segment& seg) const noexcept {
  return const_cast<Memory*>(this)->locate(addr, size, seg);
}

Trap Memory::fetch32(Addr addr, std::uint32_t& out) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;
  Segment seg{};
  const std::byte* p = locate(addr, 4, seg);
  if (p == nullptr) return Trap::kBadAddress;
  if (seg != Segment::kText && seg != Segment::kLibText)
    return Trap::kBadAddress;  // only code segments are executable
  std::memcpy(&out, p, 4);
  if (observer_) observer_->on_fetch(addr);
  return Trap::kNone;
}

Trap Memory::load32(Addr addr, std::uint32_t& out) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;
  Segment seg{};
  const std::byte* p = locate(addr, 4, seg);
  if (p == nullptr) return Trap::kBadAddress;
  std::memcpy(&out, p, 4);
  if (observer_) observer_->on_load(addr, 4, seg);
  return Trap::kNone;
}

Trap Memory::store32(Addr addr, std::uint32_t value) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;
  Segment seg{};
  std::byte* p = locate(addr, 4, seg);
  if (p == nullptr) return Trap::kBadAddress;
  if (seg == Segment::kText || seg == Segment::kLibText)
    return Trap::kWriteProtected;
  std::memcpy(p, &value, 4);
  note_write(seg, p, 4);
  if (observer_) observer_->on_store(addr, 4, seg);
  return Trap::kNone;
}

Trap Memory::load8(Addr addr, std::uint8_t& out) noexcept {
  Segment seg{};
  const std::byte* p = locate(addr, 1, seg);
  if (p == nullptr) return Trap::kBadAddress;
  out = static_cast<std::uint8_t>(*p);
  if (observer_) observer_->on_load(addr, 1, seg);
  return Trap::kNone;
}

Trap Memory::store8(Addr addr, std::uint8_t value) noexcept {
  Segment seg{};
  std::byte* p = locate(addr, 1, seg);
  if (p == nullptr) return Trap::kBadAddress;
  if (seg == Segment::kText || seg == Segment::kLibText)
    return Trap::kWriteProtected;
  *p = static_cast<std::byte>(value);
  note_write(seg, p, 1);
  if (observer_) observer_->on_store(addr, 1, seg);
  return Trap::kNone;
}

Trap Memory::load64(Addr addr, std::uint64_t& out) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;  // x86 tolerates 4-byte alignment
  Segment seg{};
  const std::byte* p = locate(addr, 8, seg);
  if (p == nullptr) return Trap::kBadAddress;
  std::memcpy(&out, p, 8);
  if (observer_) observer_->on_load(addr, 8, seg);
  return Trap::kNone;
}

Trap Memory::store64(Addr addr, std::uint64_t value) noexcept {
  if (addr % 4 != 0) return Trap::kMisaligned;
  Segment seg{};
  std::byte* p = locate(addr, 8, seg);
  if (p == nullptr) return Trap::kBadAddress;
  if (seg == Segment::kText || seg == Segment::kLibText)
    return Trap::kWriteProtected;
  std::memcpy(p, &value, 8);
  note_write(seg, p, 8);
  if (observer_) observer_->on_store(addr, 8, seg);
  return Trap::kNone;
}

bool Memory::peek8(Addr addr, std::uint8_t& out) const noexcept {
  Segment seg{};
  const std::byte* p = locate(addr, 1, seg);
  if (!p) return false;
  out = static_cast<std::uint8_t>(*p);
  return true;
}

bool Memory::poke8(Addr addr, std::uint8_t value) noexcept {
  Segment seg{};
  std::byte* p = locate(addr, 1, seg);
  if (!p) return false;
  *p = static_cast<std::byte>(value);
  note_poke(seg, p, 1);
  return true;
}

bool Memory::peek32(Addr addr, std::uint32_t& out) const noexcept {
  Segment seg{};
  const std::byte* p = locate(addr, 4, seg);
  if (!p) return false;
  std::memcpy(&out, p, 4);
  return true;
}

bool Memory::poke32(Addr addr, std::uint32_t value) noexcept {
  Segment seg{};
  std::byte* p = locate(addr, 4, seg);
  if (!p) return false;
  std::memcpy(p, &value, 4);
  note_poke(seg, p, 4);
  return true;
}

bool Memory::peek64(Addr addr, std::uint64_t& out) const noexcept {
  Segment seg{};
  const std::byte* p = locate(addr, 8, seg);
  if (!p) return false;
  std::memcpy(&out, p, 8);
  return true;
}

bool Memory::poke64(Addr addr, std::uint64_t value) noexcept {
  Segment seg{};
  std::byte* p = locate(addr, 8, seg);
  if (!p) return false;
  std::memcpy(p, &value, 8);
  note_poke(seg, p, 8);
  return true;
}

bool Memory::peek_span(Addr addr, std::span<std::byte> out) const noexcept {
  Segment seg{};
  const std::byte* p = locate(addr, static_cast<unsigned>(out.size()), seg);
  if (!p) return false;
  std::memcpy(out.data(), p, out.size());
  return true;
}

bool Memory::poke_span(Addr addr, std::span<const std::byte> in) noexcept {
  Segment seg{};
  std::byte* p = locate(addr, static_cast<unsigned>(in.size()), seg);
  if (!p) return false;
  std::memcpy(p, in.data(), in.size());
  note_poke(seg, p, static_cast<unsigned>(in.size()));
  return true;
}

bool Memory::flip_bit(Addr addr, unsigned bit) noexcept {
  std::uint8_t v{};
  if (!peek8(addr, v)) return false;
  return poke8(addr, static_cast<std::uint8_t>(v ^ (1u << (bit & 7u))));
}

std::span<std::byte> Memory::segment_bytes(Segment s) noexcept {
  const unsigned i = static_cast<unsigned>(s);
  return {bytes_[i].get(), extents_[i].size};
}

std::span<const std::byte> Memory::segment_bytes(Segment s) const noexcept {
  const unsigned i = static_cast<unsigned>(s);
  return {bytes_[i].get(), extents_[i].size};
}

Memory::Image Memory::capture_image(const Image* base) {
  // Stamps are unique across the process, so an image can only ever match
  // the memory that took it, and only until its next capture or restore.
  static std::atomic<std::uint64_t> next_stamp{0};
  constexpr std::uint32_t kBlock = WriteTrack::kBlock;
  const bool delta = base != nullptr && base->stamp == last_capture_ &&
                     last_capture_ != 0;
  Image image;
  image.stamp = ++next_stamp;
  for (unsigned i = 0; i < kNumSegments; ++i) {
    const WrittenExtent& w = track_[i].written;
    if (w.empty()) continue;
    SegmentImage& out = image.segments[i];
    out.written = w;
    const std::uint32_t first = w.lo / kBlock;
    const std::uint32_t last = (w.hi - 1) / kBlock;
    out.blocks.reserve(last - first + 1);
    const SegmentImage* prev = delta ? &base->segments[i] : nullptr;
    const std::uint32_t prev_first =
        prev && !prev->written.empty() ? prev->written.lo / kBlock : 0;
    const std::uint32_t size = extents_[i].size;
    std::uint8_t* changed = changed_[i].data();
    for (std::uint32_t b = first; b <= last; ++b) {
      if (prev && !changed[b] && b >= prev_first &&
          b - prev_first < prev->blocks.size()) {
        out.blocks.push_back(prev->blocks[b - prev_first]);
        continue;
      }
      const std::uint32_t off = b * kBlock;
      auto block = std::make_shared<ImageBlock>();  // zero tail past the end
      std::memcpy(block->data(), bytes_[i].get() + off,
                  std::min(kBlock, size - off));
      out.blocks.push_back(std::move(block));
    }
    // Flags are only ever set inside the written extent.
    std::memset(changed + first, 0, last - first + 1);
  }
  last_capture_ = image.stamp;
  return image;
}

void Memory::restore_image(const Image& image) {
  constexpr std::uint32_t kBlock = WriteTrack::kBlock;
  for (unsigned i = 0; i < kNumSegments; ++i) {
    std::byte* seg = bytes_[i].get();
    const std::uint32_t size = extents_[i].size;
    const WrittenExtent cur = track_[i].written;
    const SegmentImage& img = image.segments[i];
    const WrittenExtent next = img.written;
    FSIM_CHECK(next.empty() || next.hi <= size);
    const bool exec = static_cast<Segment>(i) == Segment::kText ||
                      static_cast<Segment>(i) == Segment::kLibText;
    bool changed = false;
    // Zero what this memory wrote outside the image's extent: below it and
    // above it (all of it when the image's extent is empty). Bytes outside
    // both extents are already zero.
    if (!cur.empty()) {
      const std::uint32_t below =
          next.empty() ? cur.hi : std::min(cur.hi, next.lo);
      if (cur.lo < below) {
        std::memset(seg + cur.lo, 0, below - cur.lo);
        changed = true;
      }
      const std::uint32_t above =
          next.empty() ? cur.hi : std::max(cur.lo, next.hi);
      if (above < cur.hi) {
        std::memset(seg + above, 0, cur.hi - above);
        changed = true;
      }
    }
    // Whole blocks: their bytes outside the extent are zero, like the
    // memory there after the zeroing above.
    std::uint32_t off = next.empty() ? 0 : next.lo / kBlock * kBlock;
    for (const auto& block : img.blocks) {
      const std::uint32_t n = std::min(kBlock, size - off);
      // Text is compared first: an unchanged text keeps the machine's
      // compiled stream valid, so only a restore that undoes a text flip
      // makes the engines re-lower.
      if (!exec || std::memcmp(seg + off, block->data(), n) != 0) {
        std::memcpy(seg + off, block->data(), n);
        changed = true;
      }
      off += kBlock;
    }
    if (exec && changed) ++code_version_;
    track_[i].written = next;
  }
  last_capture_ = 0;  // the change flags no longer describe this memory
}

}  // namespace fsim::svm

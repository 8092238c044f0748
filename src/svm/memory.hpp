// Segmented address space of one SVM process.
//
// Accesses are validated against segment bounds — touching an unmapped
// address raises the SIGSEGV-analogue trap, stores into text raise the
// write-protection trap — while the fault injector uses the privileged
// peek/poke interface that bypasses protection, exactly as ptrace() lets the
// paper's injector overwrite a halted process (§3.1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "svm/layout.hpp"
#include "svm/trap.hpp"

namespace fsim::svm {

/// Observer for the working-set analysis (Tables 5-7). Fetches and loads are
/// reported with their resolved segment.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  virtual void on_fetch(Addr addr) = 0;
  virtual void on_load(Addr addr, unsigned bytes, Segment seg) = 0;
  virtual void on_store(Addr addr, unsigned bytes, Segment seg) = 0;
};

struct SegmentExtent {
  Addr base = 0;
  std::uint32_t size = 0;  // mapped bytes; 0 means segment absent
  bool contains(Addr a) const noexcept {
    return a >= base && a - base < size;
  }
  Addr end() const noexcept { return base + size; }
};

/// The bytes of one segment that any write path has touched, as offsets
/// [lo, hi) from the segment base. Every store, poke, bit flip and the
/// loader widen it; a restore adopts the snapshot's. It bounds what a
/// snapshot must copy and what a restore must zero, so neither scans the
/// mostly untouched heap and stack arenas.
struct WrittenExtent {
  std::uint32_t lo = UINT32_MAX;  // empty while lo >= hi
  std::uint32_t hi = 0;

  bool empty() const noexcept { return lo >= hi; }
  std::uint32_t size() const noexcept { return empty() ? 0 : hi - lo; }
  void widen(std::uint32_t offset, std::uint32_t bytes) noexcept {
    lo = std::min(lo, offset);
    hi = std::max(hi, offset + bytes);
  }
};

/// The write bookkeeping of one segment, updated by every write path (the
/// threaded engine's FastMem included): the written extent, and one flag
/// per kBlock-byte block written since the last capture_image, which lets
/// the next capture share the blocks that did not change.
struct WriteTrack {
  static constexpr std::uint32_t kBlock = 1024;

  WrittenExtent written;
  std::uint8_t* changed = nullptr;  // ceil(segment size / kBlock) flags

  void note(std::uint32_t offset, std::uint32_t bytes) noexcept {
    if (bytes == 0) return;
    written.widen(offset, bytes);
    // Loads and stores span at most two blocks: two flag writes, no loop.
    const std::uint32_t first = offset / kBlock;
    const std::uint32_t last = (offset + bytes - 1) / kBlock;
    changed[first] = 1;
    changed[last] = 1;
    for (std::uint32_t b = first + 1; b < last; ++b) changed[b] = 1;
  }
};

class Memory {
 public:
  struct Config {
    std::uint32_t heap_capacity = 1u << 20;   // 1 MiB malloc arena
    std::uint32_t stack_capacity = 1u << 16;  // 64 KiB stack reservation
  };

  /// Lay out segments given the image sizes (text/data/... contents are
  /// copied in by the loader afterwards via poke_span).
  Memory(const std::array<std::uint32_t, kNumSegments>& image_sizes,
         const Config& config);

  const SegmentExtent& extent(Segment s) const noexcept {
    return extents_[static_cast<unsigned>(s)];
  }

  /// Segment containing `addr`, if mapped.
  std::optional<Segment> resolve(Addr addr) const noexcept;

  // --- Program-visible accessors (protection-checked, observed) ---
  Trap fetch32(Addr addr, std::uint32_t& out) noexcept;   // text/libtext only
  Trap load32(Addr addr, std::uint32_t& out) noexcept;
  Trap store32(Addr addr, std::uint32_t value) noexcept;
  Trap load8(Addr addr, std::uint8_t& out) noexcept;
  Trap store8(Addr addr, std::uint8_t value) noexcept;
  Trap load64(Addr addr, std::uint64_t& out) noexcept;    // FPU doubles
  Trap store64(Addr addr, std::uint64_t value) noexcept;

  // --- Privileged accessors (injector / loader / host runtime) ---
  // No protection checks, no observer callbacks; false when unmapped.
  bool peek8(Addr addr, std::uint8_t& out) const noexcept;
  bool poke8(Addr addr, std::uint8_t value) noexcept;
  bool peek32(Addr addr, std::uint32_t& out) const noexcept;
  bool poke32(Addr addr, std::uint32_t value) noexcept;
  bool peek64(Addr addr, std::uint64_t& out) const noexcept;
  bool poke64(Addr addr, std::uint64_t value) noexcept;
  bool peek_span(Addr addr, std::span<std::byte> out) const noexcept;
  bool poke_span(Addr addr, std::span<const std::byte> in) noexcept;

  /// Flip a single bit anywhere in the mapped address space (privileged).
  bool flip_bit(Addr addr, unsigned bit) noexcept;

  void set_observer(AccessObserver* obs) noexcept { observer_ = obs; }
  AccessObserver* observer() const noexcept { return observer_; }

  /// Monotonic counter bumped whenever a privileged poke lands in a code
  /// segment (or a restore changes text). Execution engines compare it
  /// against the version their pre-decoded stream was lowered at and
  /// re-lower stale blocks — this is how injected text flips invalidate
  /// compiled code.
  std::uint64_t code_version() const noexcept { return code_version_; }

  /// Raw backing bytes of a segment (host-side, e.g. for output capture).
  /// The mutable view is the threaded engine's FastMem, which notes every
  /// store it makes through it in `write_track(s)`.
  std::span<std::byte> segment_bytes(Segment s) noexcept;
  std::span<const std::byte> segment_bytes(Segment s) const noexcept;

  const WrittenExtent& written(Segment s) const noexcept {
    return track_[static_cast<unsigned>(s)].written;
  }
  WriteTrack& write_track(Segment s) noexcept {
    return track_[static_cast<unsigned>(s)];
  }

  // --- Checkpoint/restart support ---
  /// An image holds each segment's written extent as the aligned
  /// WriteTrack::kBlock-byte blocks that overlap it (block bytes outside
  /// the extent are zero, as memory outside it is). Blocks are immutable
  /// and shared: a capture against `base`, this memory's previous capture,
  /// reuses every block not written since, so a series of snapshots of one
  /// run stores little more than what changed between them.
  using ImageBlock = std::array<std::byte, WriteTrack::kBlock>;
  struct SegmentImage {
    WrittenExtent written;
    /// Blocks written.lo / kBlock onwards (none when `written` is empty).
    std::vector<std::shared_ptr<const ImageBlock>> blocks;
  };
  struct Image {
    std::array<SegmentImage, kNumSegments> segments;
    std::uint64_t stamp = 0;  // process-unique id of this capture
  };

  /// Image of every segment's written extent. When `base` is the image of
  /// this memory's latest capture (and no restore came after it), blocks
  /// not written since are shared with it; otherwise every block is
  /// copied.
  Image capture_image(const Image* base = nullptr);
  /// Rewind to `image`, taken from a Memory of the same layout: zero what
  /// this memory wrote outside the image's extents, copy the image's blocks
  /// and adopt its extents. The code version is bumped iff text changed.
  void restore_image(const Image& image);

 private:
  std::byte* locate(Addr addr, unsigned size, Segment& seg) noexcept;
  const std::byte* locate(Addr addr, unsigned size, Segment& seg) const noexcept;
  void note_write(Segment seg, const std::byte* p, unsigned size) noexcept {
    const unsigned i = static_cast<unsigned>(seg);
    track_[i].note(static_cast<std::uint32_t>(p - bytes_[i].get()), size);
  }
  void note_poke(Segment seg, const std::byte* p, unsigned size) noexcept {
    note_write(seg, p, size);
    if (seg == Segment::kText || seg == Segment::kLibText) ++code_version_;
  }

  std::array<SegmentExtent, kNumSegments> extents_{};
  /// Segment backing stores, zero on allocation. The heap and stack
  /// arenas are mapped straight from the kernel, which supplies zero pages
  /// on first touch: a Memory costs the pages its process writes, not its
  /// 1 MiB heap reservation (a recycled malloc chunk would have to be
  /// cleared, and so touched, in full).
  struct Release {
    std::uint32_t size;  // no initializer: the deleter must be default-
                         // constructible inside the still-incomplete Memory
    void operator()(std::byte* p) const noexcept;
  };
  std::array<std::unique_ptr<std::byte[], Release>, kNumSegments> bytes_;
  std::array<WriteTrack, kNumSegments> track_{};
  std::array<std::vector<std::uint8_t>, kNumSegments> changed_;  // flags
  std::uint64_t last_capture_ = 0;  // stamp of the latest capture; 0 after
                                    // a restore
  AccessObserver* observer_ = nullptr;
  std::uint64_t code_version_ = 0;
};

}  // namespace fsim::svm

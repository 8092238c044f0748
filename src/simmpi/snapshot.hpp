// Whole-job checkpoint/restart.
//
// The paper's conclusion calls for "a serious effort to redesign or enhance
// parallel applications and communication libraries with a renewed emphasis
// on fault tolerance". Checkpoint/restart is the baseline technique that
// motivation implies: snapshot the entire job (every rank's registers,
// address space, heap metadata, MPI library state, and in-flight packets),
// and after a fault kills the job, resume from the last snapshot instead of
// from the beginning.
//
// A Snapshot is a value: copying the World's complete state is legitimate
// here because the simulation owns everything (no external descriptors).
// Restoring rewinds a *compatible* World (same program, same options) to the
// captured point; determinism then guarantees the re-execution is exact.
//
// Address spaces are captured sparsely: each segment contributes only its
// written extent (svm::WrittenExtent), the bytes any write path has touched,
// since everything outside it is still zero, in immutable blocks a later
// capture can share when they have not changed. A restore zeroes what the
// target wrote outside the snapshot's extents, so it rewinds a World that
// has run on (or run another fault) exactly as it rewinds a fresh one, at a
// cost set by the bytes written rather than by the arena sizes.
#pragma once

#include <cstdint>
#include <memory>

namespace fsim::simmpi {

class World;

class Snapshot {
 public:
  Snapshot();
  ~Snapshot();
  Snapshot(Snapshot&&) noexcept;
  Snapshot& operator=(Snapshot&&) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// Capture the complete state of a running (or finished) job. When
  /// `base` is this World's previous snapshot, with no restore since,
  /// memory blocks not written in between are shared with it instead of
  /// copied; any other `base` is ignored.
  static Snapshot capture(const World& world, const Snapshot* base = nullptr);

  /// Rewind `world` to this snapshot. The world must have been created from
  /// the same program with the same options (rank count is verified).
  void restore(World& world) const;

  /// Global instruction count at capture time.
  std::uint64_t instructions() const noexcept;

  /// Size in bytes: the blocks holding the written extents (shared ones
  /// included) plus the library and I/O state, including the library's own
  /// heap storage (queued packets, request slots and the payloads of
  /// rendezvous sends in flight, the reduce accumulator, issued CTSs), for
  /// checkpoint-cost accounting.
  std::uint64_t size_bytes() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fsim::simmpi

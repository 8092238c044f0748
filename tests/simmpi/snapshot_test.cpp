// Checkpoint/restart: the Snapshot value must capture the complete job and
// restores must be exact (determinism makes equality testable).
#include "simmpi/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "apps/app.hpp"
#include "core/injector.hpp"
#include "testutil.hpp"

namespace fsim::simmpi {
namespace {

using testing::Job;

apps::App small_app() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 6;
  cfg.rows = 8;
  cfg.steps = 8;
  cfg.cold_functions = 5;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

TEST(Snapshot, RestoreReproducesIdenticalExecution) {
  apps::App app = small_app();
  svm::Program program = app.link();

  // Reference: run to completion uninterrupted.
  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string want_output = ref.output();
  const std::uint64_t want_instr = ref.global_instructions();

  // Snapshot mid-run, keep running, then rewind and run again.
  World w(program, app.world);
  for (int i = 0; i < 60; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(w);
  const std::uint64_t at = w.global_instructions();

  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), want_output);

  snap.restore(w);
  EXPECT_EQ(w.status(), JobStatus::kRunning);
  EXPECT_EQ(w.global_instructions(), at);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), want_output);
  EXPECT_EQ(w.global_instructions(), want_instr);
}

TEST(Snapshot, RecoversFromInjectedCrash) {
  // The classic scenario the paper motivates: a fault kills the job; the
  // checkpoint turns a total loss into a partial re-execution.
  apps::App app = small_app();
  svm::Program program = app.link();

  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, app.world);
  for (int i = 0; i < 50; ++i) w.advance();
  const Snapshot checkpoint = Snapshot::capture(w);

  // Crash it: wild frame pointer on rank 2.
  w.machine(2).regs().set_fp(0x10);
  w.machine(2).regs().set_sp(0x10);
  const JobStatus st = w.run(1'000'000'000ull);
  ASSERT_TRUE(st == JobStatus::kCrashed || st == JobStatus::kMpiFatal ||
              st == JobStatus::kDeadlocked);

  // Restore and finish cleanly.
  checkpoint.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), ref.output());
}

TEST(Snapshot, CapturesInFlightMessages) {
  // Snapshot taken while packets sit in a channel queue must preserve them.
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    call MPI_Barrier
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 5
    call MPI_Recv
    call MPI_Finalize
    ldw r1, [fp-8]
    leave
    ret
sender:
    ldi r5, 1234
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 5
    call MPI_Send      ; lands in rank 0's queue before the barrier completes
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)");
  // Advance until the message is in flight (queued or inboxed), snapshot,
  // finish, restore, finish again.
  while (job.world.status() == JobStatus::kRunning &&
         job.world.process(0).channel().queued_packets() == 0)
    job.world.advance();
  ASSERT_EQ(job.world.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(job.world);
  ASSERT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 1234);

  snap.restore(job.world);
  ASSERT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 1234);
}

std::uint64_t written_bytes(World& w) {
  std::uint64_t written = 0;
  for (int r = 0; r < w.size(); ++r)
    for (unsigned s = 0; s < svm::kNumSegments; ++s)
      written += w.machine(r).memory().written(static_cast<svm::Segment>(s)).size();
  return written;
}

TEST(Snapshot, SizeAccountsForMemory) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  for (int i = 0; i < 20; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);
  // The snapshot holds every byte any rank wrote (its written extents)...
  const std::uint64_t written = written_bytes(w);
  EXPECT_GT(written, 0u);
  EXPECT_GE(snap.size_bytes(), written);
  // ... and not the untouched arenas: the four 1 MiB heaps alone are 4 MiB.
  EXPECT_LT(snap.size_bytes(), 1ull << 20);
  EXPECT_GT(snap.instructions(), 0u);
}

TEST(Snapshot, SizeCountsRendezvousPayloadInFlight) {
  // Rank 0 MPI_Isend-s 64 KiB of untouched BSS, above the eager threshold,
  // and waits; rank 1 spins before receiving, so the RTS sits unanswered
  // and the payload lives only in rank 0's library state.
  constexpr std::uint64_t kPayload = 64 * 1024;
  WorldOptions o;
  o.nranks = 2;
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, receiver
    la r1, big
    li r2, 65536
    ldi r3, 1
    ldi r4, 7
    call MPI_Isend
    call MPI_Wait
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
receiver:
    ldi r5, 0
    li r6, 100000
delay:
    addi r5, r5, 1
    blt r5, r6, delay
    la r1, big
    li r2, 65536
    ldi r3, 0
    ldi r4, 7
    call MPI_Recv
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
big: .space 65536
)",
          o);
  for (int i = 0; i < 40; ++i) job.world.advance();
  ASSERT_EQ(job.world.status(), JobStatus::kRunning);
  ASSERT_EQ(job.world.process(1).channel().pending_bytes(), kHeaderBytes);
  const Snapshot snap = Snapshot::capture(job.world);
  EXPECT_GE(snap.size_bytes(), written_bytes(job.world) + kPayload);
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
}

TEST(Snapshot, RestoreIntoDirtiedWorldMatchesFresh) {
  // A World that ran on past the snapshot, to completion, and then took
  // stray writes far outside anything the job touched must, once
  // restored, be byte for byte the World that only ever ran to the
  // snapshot — and run on identically.
  apps::App app = small_app();
  svm::Program program = app.link();
  World fresh(program, app.world);
  World dirty(program, app.world);
  for (int i = 0; i < 45; ++i) {
    fresh.advance();
    dirty.advance();
  }
  ASSERT_EQ(fresh.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(dirty);
  ASSERT_EQ(dirty.run(1'000'000'000ull), JobStatus::kCompleted);
  for (int r = 0; r < dirty.size(); ++r) {
    svm::Memory& mem = dirty.machine(r).memory();
    for (svm::Segment seg : {svm::Segment::kHeap, svm::Segment::kStack,
                             svm::Segment::kBss, svm::Segment::kText}) {
      const svm::SegmentExtent& e = mem.extent(seg);
      if (e.size < 8) continue;
      ASSERT_TRUE(mem.poke32(e.base, 0xdeadbeef));
      ASSERT_TRUE(mem.poke32(e.end() - 4, 0xfeedface));
    }
  }

  snap.restore(dirty);
  ASSERT_EQ(dirty.global_instructions(), fresh.global_instructions());
  for (int r = 0; r < dirty.size(); ++r) {
    const svm::Memory& a = dirty.machine(r).memory();
    const svm::Memory& b = fresh.machine(r).memory();
    for (unsigned s = 0; s < svm::kNumSegments; ++s) {
      const auto seg = static_cast<svm::Segment>(s);
      const auto x = a.segment_bytes(seg);
      const auto y = b.segment_bytes(seg);
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0)
          << "rank " << r << " segment " << s;
      EXPECT_EQ(a.written(seg).lo, b.written(seg).lo);
      EXPECT_EQ(a.written(seg).hi, b.written(seg).hi);
    }
    EXPECT_EQ(dirty.machine(r).regs().pc, fresh.machine(r).regs().pc);
  }
  ASSERT_EQ(dirty.run(1'000'000'000ull), JobStatus::kCompleted);
  ASSERT_EQ(fresh.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(dirty.output(), fresh.output());
  EXPECT_EQ(dirty.global_instructions(), fresh.global_instructions());
}

TEST(Snapshot, CaptureAgainstThePreviousOneEqualsAFullCapture) {
  // A capture that shares the blocks not written since the previous
  // snapshot must restore exactly what a capture copying every block
  // restores: byte for byte, extent for extent, and run for run.
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  for (int i = 0; i < 25; ++i) w.advance();
  const Snapshot first = Snapshot::capture(w);
  for (int i = 0; i < 25; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot shared = Snapshot::capture(w, &first);
  const Snapshot full = Snapshot::capture(w);

  World a(program, app.world);
  World b(program, app.world);
  shared.restore(a);
  full.restore(b);
  for (int r = 0; r < a.size(); ++r) {
    for (unsigned s = 0; s < svm::kNumSegments; ++s) {
      const auto seg = static_cast<svm::Segment>(s);
      const auto x = a.machine(r).memory().segment_bytes(seg);
      const auto y = b.machine(r).memory().segment_bytes(seg);
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0)
          << "rank " << r << " segment " << s;
      EXPECT_EQ(a.machine(r).memory().written(seg).lo,
                b.machine(r).memory().written(seg).lo);
      EXPECT_EQ(a.machine(r).memory().written(seg).hi,
                b.machine(r).memory().written(seg).hi);
    }
  }
  ASSERT_EQ(a.run(1'000'000'000ull), JobStatus::kCompleted);
  ASSERT_EQ(b.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(a.output(), b.output());
  EXPECT_EQ(a.global_instructions(), b.global_instructions());
}

TEST(Snapshot, RestoreToMismatchedWorldIsRejected) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  const Snapshot snap = Snapshot::capture(w);

  simmpi::WorldOptions other = app.world;
  other.nranks = 2;
  World w2(program, other);
  EXPECT_DEATH(snap.restore(w2), "FSIM_CHECK");
}

TEST(Snapshot, RepeatedRestoreIsIdempotent) {
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  for (int i = 0; i < 40; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);

  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string first = w.output();
  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), first);
}

TEST(Snapshot, WorksMidTreeCollective) {
  // Snapshot while a binomial-tree allreduce is mid-flight: the collective
  // state machines (mask/phase) must be captured and restored exactly.
  apps::App app = small_app();
  simmpi::WorldOptions opts = app.world;
  opts.collectives = CollectiveAlgorithm::kBinomialTree;
  svm::Program program = app.link();

  World ref(program, opts);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, opts);
  for (int i = 0; i < 35; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), ref.output());

  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), ref.output());
}

TEST(Snapshot, WorksWithOutstandingNonblockingRequests) {
  apps::App app = apps::make_jacobi();  // Isend/Irecv/Wait halo exchange
  svm::Program program = app.link();

  World ref(program, app.world);
  ASSERT_EQ(ref.run(1'000'000'000ull), JobStatus::kCompleted);

  World w(program, app.world);
  for (int i = 0; i < 200; ++i) w.advance();
  ASSERT_EQ(w.status(), JobStatus::kRunning);
  const Snapshot snap = Snapshot::capture(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  const std::string first = w.output();
  EXPECT_EQ(first, ref.output());

  snap.restore(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  EXPECT_EQ(w.output(), first);
}

TEST(Snapshot, ArmedChannelFaultSurvivesRestore) {
  // A pre-armed (not yet fired) message fault is part of the experiment
  // configuration and must survive a rewind.
  apps::App app = small_app();
  svm::Program program = app.link();
  World w(program, app.world);
  w.process(1).channel().arm_fault(1u << 29, 3);  // beyond traffic: benign
  for (int i = 0; i < 30; ++i) w.advance();
  const Snapshot snap = Snapshot::capture(w);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
  snap.restore(w);
  EXPECT_TRUE(w.process(1).channel().fault().armed);
  EXPECT_FALSE(w.process(1).channel().fault().fired);
  ASSERT_EQ(w.run(1'000'000'000ull), JobStatus::kCompleted);
}

}  // namespace
}  // namespace fsim::simmpi

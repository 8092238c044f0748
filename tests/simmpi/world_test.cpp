#include "simmpi/world.hpp"

#include <gtest/gtest.h>

#include "programs.hpp"
#include "testutil.hpp"

namespace fsim::simmpi {
namespace {

using testing::Job;
namespace programs = testing::programs;

WorldOptions ranks(int n) {
  WorldOptions o;
  o.nranks = n;
  return o;
}

TEST(World, SingleRankHelloCompletes) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    la r1, msg
    ldi r2, 5
    sys 1
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.data
msg: .asciz "hello"
)",
          ranks(1));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_NE(job.world.console().find("[rank 0] hello"), std::string::npos);
}

TEST(World, RankAndSizeSyscalls) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    call MPI_Comm_size
    mul r9, r9, r1       ; rank * size
    call MPI_Finalize
    mov r1, r9
    leave
    ret
)",
          ranks(4));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), r * 4);
}

constexpr const char* kPingPong = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, rank1
    ; rank 0: send 41, await reply, exit with it
    ldi r5, 41
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 7
    call MPI_Send
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 8
    call MPI_Recv
    call MPI_Finalize
    ldw r1, [fp-8]
    leave
    ret
rank1:
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 7
    call MPI_Recv
    ldw r5, [fp-8]
    addi r5, r5, 1
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 8
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)";

TEST(World, PingPong) {
  Job job(kPingPong, ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 42);
}

TEST(World, PingPongIsDeterministic) {
  Job a(kPingPong, ranks(2));
  Job b(kPingPong, ranks(2));
  a.run();
  b.run();
  EXPECT_EQ(a.world.global_instructions(), b.world.global_instructions());
  EXPECT_EQ(a.world.machine(0).exit_code(), b.world.machine(0).exit_code());
}

TEST(World, RingPass) {
  // Each rank receives from (rank-1), adds its rank, forwards to (rank+1);
  // rank 0 seeds with 100 and finally receives 100+1+2+3.
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    call MPI_Comm_size
    mov r10, r1
    ldi r5, 0
    bne r9, r5, middle
    ; rank 0 seeds the token
    ldi r5, 100
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 3
    call MPI_Send
    addi r1, fp, -8
    ldi r2, 4
    addi r3, r10, -1
    ldi r4, 3
    call MPI_Recv
    call MPI_Finalize
    ldw r1, [fp-8]
    leave
    ret
middle:
    addi r1, fp, -8
    ldi r2, 4
    addi r3, r9, -1
    ldi r4, 3
    call MPI_Recv
    ldw r5, [fp-8]
    add r5, r5, r9
    stw [fp-8], r5
    addi r5, r9, 1
    rems r5, r5, r10
    stw [fp-12], r5
    addi r1, fp, -8
    ldi r2, 4
    ldw r3, [fp-12]
    ldi r4, 3
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(4));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 106);
}

TEST(World, BarrierSynchronises) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Barrier
    call MPI_Barrier
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(5));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
}

TEST(World, BcastDistributesArray) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, recvside
    ; root fills the array with 7, 14, 21, 28
    la r10, arr
    ldi r5, 7
    stw [r10+0], r5
    ldi r5, 14
    stw [r10+4], r5
    ldi r5, 21
    stw [r10+8], r5
    ldi r5, 28
    stw [r10+12], r5
recvside:
    la r1, arr
    ldi r2, 16
    ldi r3, 0
    call MPI_Bcast
    la r10, arr
    ldw r5, [r10+0]
    ldw r6, [r10+12]
    add r9, r5, r6
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
arr: .space 16
)",
          ranks(3));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < 3; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), 35) << "rank " << r;
}

TEST(World, AllreduceSumsContributions) {
  // Each rank contributes rank+1 as a double; all see sum = n(n+1)/2.
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    addi r5, r1, 1
    i2f r5
    la r9, val
    fst [r9]
    la r1, val
    la r2, res
    ldi r3, 1
    call MPI_Allreduce_sum
    la r9, res
    fld [r9]
    f2i r9
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
val: .space 8
res: .space 8
)",
          ranks(4));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), 10) << "rank " << r;
}

TEST(World, ReduceOnlyRootGetsResult) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r10, r1
    addi r5, r1, 1
    i2f r5
    la r9, val
    fst [r9]
    la r1, val
    la r2, res
    ldi r3, 1
    ldi r4, 2      ; root = 2
    call MPI_Reduce_sum
    ldi r5, 2
    bne r10, r5, notroot
    la r9, res
    fld [r9]
    f2i r9
    call MPI_Finalize
    mov r1, r9
    leave
    ret
notroot:
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
val: .space 8
res: .space 8
)",
          ranks(3));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(2).exit_code(), 6);  // 1+2+3
}

TEST(World, AnySourceReceivesFromBoth) {
  // Rank 0 receives twice with ANY_SOURCE and sums the payloads.
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, -1
    ldi r4, 1
    call MPI_Recv
    ldw r10, [fp-8]
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, -1
    ldi r4, 1
    call MPI_Recv
    ldw r5, [fp-8]
    add r10, r10, r5
    call MPI_Finalize
    mov r1, r10
    leave
    ret
sender:
    muli r5, r9, 10
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 1
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(3));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 30);  // 10 + 20
}

TEST(World, RendezvousLargeMessage) {
  // 8 KiB message with a 4 KiB eager threshold forces RTS/CTS/DATA.
  WorldOptions o = ranks(2);
  o.eager_threshold = 4096;
  Job job(programs::kRendezvousSend, o);
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(1).exit_code(), 11);
  // Rendezvous produced control traffic on both sides: RTS at the receiver,
  // CTS at the sender.
  EXPECT_GE(job.world.process(1).adi_stats().control_messages, 1u);
  EXPECT_GE(job.world.process(0).adi_stats().control_messages, 1u);
}

TEST(World, MutualRecvDeadlocks) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    xori r3, r1, 1      ; peer = rank ^ 1
    addi r1, fp, -8
    ldi r2, 4
    ldi r4, 5
    call MPI_Recv
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kDeadlocked);
}

TEST(World, SendToInvalidRankWithoutHandlerIsFatal) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 99         ; no such rank
    ldi r4, 5
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kMpiFatal);
  EXPECT_NE(job.world.console().find("MPICH fatal error"), std::string::npos);
  EXPECT_NE(job.world.console().find("invalid destination rank 99"),
            std::string::npos);
}

TEST(World, SendToInvalidRankWithHandlerIsMpiDetected) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    ldi r1, 1
    call MPI_Errhandler_set
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 99
    ldi r4, 5
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kMpiHandler);
  EXPECT_NE(job.world.console().find("MPI ERROR HANDLER invoked"),
            std::string::npos);
}

TEST(World, MpiBeforeInitIsFatal) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Comm_rank
    ldi r1, 0
    leave
    ret
)",
          ranks(1));
  EXPECT_EQ(job.run(), JobStatus::kMpiFatal);
}

TEST(World, CrashInOneRankKillsJob) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    ldi r5, 1
    bne r1, r5, fine
    ldi r6, 4
    ldw r7, [r6]       ; rank 1 dereferences garbage
fine:
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(3));
  EXPECT_EQ(job.run(), JobStatus::kCrashed);
  EXPECT_EQ(job.world.failed_rank(), 1);
  EXPECT_EQ(job.world.crash_trap(), svm::Trap::kBadAddress);
  EXPECT_NE(job.world.console().find("SIGSEGV"), std::string::npos);
}

TEST(World, AppAbortReported) {
  Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    la r1, msg
    ldi r2, 9
    sys 11             ; assert_fail
    leave
    ret
.data
msg: .asciz "NaN check"
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kAppAborted);
  EXPECT_NE(job.world.console().find("APPLICATION ERROR: NaN check"),
            std::string::npos);
}

TEST(World, TagMismatchHangs) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 5          ; expects tag 5
    call MPI_Recv
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
sender:
    stw [fp-8], r9
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 6          ; sends tag 6
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kDeadlocked);
}

TEST(World, HeapBuffersTaggedMpi) {
  // While an unexpected message sits buffered, the receiving process's heap
  // must show an MPI-tagged chunk (paper §3.2 malloc wrapper).
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 1
    bne r9, r5, waiter
    ; rank 1 sends immediately, then spins before receiving the release
    stw [fp-8], r9
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 5
    call MPI_Send
    call MPI_Barrier
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
waiter:
    ; rank 0 joins the barrier first; the message waits in its inbox only
    ; after a recv pumps the channel, so receive AFTER the barrier.
    call MPI_Barrier
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 1
    ldi r4, 5
    call MPI_Recv
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          [] {
            WorldOptions o;
            o.nranks = 2;
            o.quantum = 1;  // fine-grained so the buffered window is visible
            return o;
          }());
  // Step manually and observe rank 0's heap while the job runs.
  bool saw_mpi_chunk = false;
  while (job.world.status() == JobStatus::kRunning &&
         job.world.global_instructions() < 10'000'000) {
    job.world.advance();
    if (job.world.process(0).heap().live_bytes(svm::AllocTag::kMpi) > 0)
      saw_mpi_chunk = true;
  }
  EXPECT_EQ(job.world.status(), JobStatus::kCompleted);
  EXPECT_TRUE(saw_mpi_chunk);
  // After delivery the buffer chunk was freed again.
  EXPECT_EQ(job.world.process(0).heap().live_bytes(svm::AllocTag::kMpi), 0u);
}

TEST(World, TrafficStatsCountMessages) {
  Job job(kPingPong, ranks(2));
  job.run();
  // Rank 0 received one data message (the reply), rank 1 one (the ping).
  EXPECT_EQ(job.world.process(0).channel().stats().data_messages, 1u);
  EXPECT_EQ(job.world.process(1).channel().stats().data_messages, 1u);
  EXPECT_EQ(job.world.process(0).channel().stats().payload_bytes, 4u);
}

TEST(World, JitterVariesInterleavingButNotResult) {
  auto run_with_seed = [&](std::uint64_t seed) {
    WorldOptions o = ranks(4);
    o.quantum_jitter = 96;
    o.seed = seed;
    Job job(R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    addi r5, r1, 1
    i2f r5
    la r9, val
    fst [r9]
    la r1, val
    la r2, res
    ldi r3, 1
    call MPI_Allreduce_sum
    la r9, res
    fld [r9]
    f2i r9
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
val: .space 8
res: .space 8
)",
            o);
    job.run();
    EXPECT_EQ(job.world.status(), JobStatus::kCompleted);
    return job.world.machine(0).exit_code();
  };
  // Integer-valued contributions sum exactly regardless of arrival order.
  EXPECT_EQ(run_with_seed(1), 10);
  EXPECT_EQ(run_with_seed(2), 10);
  EXPECT_EQ(run_with_seed(99), 10);
}

}  // namespace
}  // namespace fsim::simmpi

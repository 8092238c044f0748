// MPI_Gather / MPI_Scatter (flat, rank-ordered placement).
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

TEST(GatherScatter, GatherCollectsInRankOrder) {
  // Every rank contributes (rank+1)*11; root 0 sums recvbuf with positional
  // weights to prove placement order.
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    addi r5, r9, 1
    muli r5, r5, 11
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    la r3, gbuf
    ldi r4, 0
    call MPI_Gather
    ldi r5, 0
    bne r9, r5, fin
    ; weighted sum: gbuf[i] * (i+1) => 11*1 + 22*2 + 33*3 + 44*4 = 330
    la r10, gbuf
    ldi r11, 0
    ldi r12, 0
gloop:
    muli r5, r12, 4
    add r5, r10, r5
    ldw r6, [r5]
    addi r7, r12, 1
    mul r6, r6, r7
    add r11, r11, r6
    addi r12, r12, 1
    ldi r5, 4
    blt r12, r5, gloop
    call MPI_Finalize
    mov r1, r11
    leave
    ret
fin:
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
gbuf: .space 16
)",
          ranks(4));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 330);
}

TEST(GatherScatter, ScatterDistributesBlocks) {
  // Root 2 scatters the table {100,101,102,103,104}; rank r must get 100+r.
  Job job(programs::kScatter, ranks(5));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  for (int r = 0; r < 5; ++r)
    EXPECT_EQ(job.world.machine(r).exit_code(), 100 + r) << "rank " << r;
}

TEST(GatherScatter, RoundTripScatterThenGather) {
  // scatter, transform locally, gather back: result[i] = 2*input[i].
  Job job(programs::kScatterGather, ranks(3));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
  EXPECT_EQ(job.world.machine(0).exit_code(), 30);
}

TEST(GatherScatter, InvalidRootWithHandlerIsMpiDetected) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    ldi r1, 1
    call MPI_Errhandler_set
    addi r1, fp, -8
    ldi r2, 4
    addi r3, fp, -16
    ldi r4, 42
    call MPI_Gather
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
)",
          ranks(2));
  EXPECT_EQ(job.run(), JobStatus::kMpiHandler);
}

TEST(GatherScatter, RepeatedGathersStayInSync) {
  Job job(R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r10, 0
loop:
    stw [fp-8], r9
    addi r1, fp, -8
    ldi r2, 4
    la r3, gbuf
    ldi r4, 0
    call MPI_Gather
    addi r10, r10, 1
    ldi r5, 4
    blt r10, r5, loop
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
gbuf: .space 24
)",
          ranks(6));
  EXPECT_EQ(job.run(), JobStatus::kCompleted);
}

}  // namespace
}  // namespace fsim::simmpi

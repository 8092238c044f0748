// MPI programs shared by the simmpi unit tests and the behaviour oracle
// (mpi_behaviour_test.cpp), so each program text has one home.
#pragma once

namespace fsim::simmpi::testing::programs {

// Blocking MPI_Send/MPI_Recv of 8 KiB (rendezvous at the default 4 KiB
// eager threshold): rank 1 exits with buf[0] + buf[8191] = 11.
inline constexpr const char* kRendezvousSend = R"(
.text
main:
    enter 0
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, receiver
    ; rank 0 fills buf[0]=5, buf[8191]=6 and sends 8192 bytes
    la r10, buf
    ldi r5, 5
    stb [r10+0], r5
    li r11, 8191
    add r10, r10, r11
    ldi r5, 6
    stb [r10+0], r5
    la r1, buf
    li r2, 8192
    ldi r3, 1
    ldi r4, 9
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
receiver:
    la r1, buf
    li r2, 8192
    ldi r3, 0
    ldi r4, 9
    call MPI_Recv
    la r10, buf
    ldb r5, [r10+0]
    li r11, 8191
    add r10, r10, r11
    ldb r6, [r10+0]
    add r9, r5, r6
    call MPI_Finalize
    mov r1, r9
    leave
    ret
.bss
buf: .space 8192
)";

// Rank 0 posts MPI_Irecv and polls MPI_Test; it exits with its poll count.
inline constexpr const char* kTestPoll = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    la r1, buf
    ldi r2, 4
    ldi r3, 1
    ldi r4, 5
    call MPI_Irecv
    mov r10, r1          ; request id
    ldi r11, 0           ; poll counter
poll:
    addi r11, r11, 1
    mov r1, r10
    call MPI_Test
    ldi r5, -1
    beq r1, r5, poll
    call MPI_Finalize
    mov r1, r11          ; number of polls taken
    leave
    ret
sender:
    ; burn some cycles before sending so the receiver must poll
    ldi r5, 0
    li r6, 3000
delay:
    addi r5, r5, 1
    blt r5, r6, delay
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    ldi r3, 0
    ldi r4, 5
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
buf: .space 4
)";

// Rank 0 probes, then receives; it exits 77 iff the lengths agree.
inline constexpr const char* kProbe = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, sender
    ldi r1, 1
    ldi r2, 6
    call MPI_Probe       ; r1 <- pending payload bytes
    mov r10, r1
    la r1, buf
    ldi r2, 64
    ldi r3, 1
    ldi r4, 6
    call MPI_Recv
    ; exit code: probe length must equal received length
    sub r1, r10, r1
    addi r1, r1, 77      ; 77 iff they matched
    mov r11, r1
    call MPI_Finalize
    mov r1, r11
    leave
    ret
sender:
    la r1, buf
    ldi r2, 24
    ldi r3, 0
    ldi r4, 6
    call MPI_Send
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
buf: .space 64
)";

// Every rank MPI_Sendrecv-s its rank to the right neighbour and exits with
// the left neighbour's rank.
inline constexpr const char* kSendrecvRing = R"(
.text
main:
    enter 64
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    call MPI_Comm_size
    mov r10, r1
    ; sendval = rank; params block at [fp-48..fp-16)
    stw [fp-52], r9          ; send payload word
    addi r5, fp, -52
    stw [fp-48], r5          ; sbuf
    ldi r5, 4
    stw [fp-44], r5          ; slen
    addi r5, r9, 1
    rems r5, r5, r10
    stw [fp-40], r5          ; dest = rank+1 mod P
    ldi r5, 3
    stw [fp-36], r5          ; stag
    addi r5, fp, -56
    stw [fp-32], r5          ; rbuf
    ldi r5, 4
    stw [fp-28], r5          ; rcap
    add r5, r9, r10
    addi r5, r5, -1
    rems r5, r5, r10
    stw [fp-24], r5          ; src = rank-1 mod P
    ldi r5, 3
    stw [fp-20], r5          ; rtag
    addi r1, fp, -48
    call MPI_Sendrecv
    call MPI_Finalize
    ldw r1, [fp-56]          ; received = left neighbour's rank
    leave
    ret
)";

// Rank 0 MPI_Isend-s 256 bytes and waits; rank 1 exits with buf[200] = 99.
inline constexpr const char* kRendezvousIsend = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, receiver
    la r10, buf
    ldi r5, 99
    stb [r10+200], r5
    la r1, buf
    li r2, 256
    ldi r3, 1
    ldi r4, 4
    call MPI_Isend
    call MPI_Wait        ; blocks until the CTS arrives and data flows
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
receiver:
    la r1, buf
    li r2, 256
    ldi r3, 0
    ldi r4, 4
    call MPI_Recv
    la r10, buf
    ldb r11, [r10+200]
    call MPI_Finalize
    mov r1, r11
    leave
    ret
.bss
buf: .space 256
)";

// Root 2 scatters {100..104}; rank r exits with 100 + r.
inline constexpr const char* kScatter = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 2
    bne r9, r5, doscatter
    la r10, table
    ldi r11, 0
tfill:
    muli r5, r11, 4
    add r5, r10, r5
    addi r6, r11, 100
    stw [r5], r6
    addi r11, r11, 1
    ldi r5, 5
    blt r11, r5, tfill
doscatter:
    la r1, table
    ldi r2, 4
    addi r3, fp, -8
    ldi r4, 2
    call MPI_Scatter
    call MPI_Finalize
    ldw r1, [fp-8]
    leave
    ret
.bss
table: .space 20
)";

// Scatter, double, gather back: rank 0 exits with 6 + 10 + 14 = 30.
inline constexpr const char* kScatterGather = R"(
.text
main:
    enter 16
    call MPI_Init
    call MPI_Comm_rank
    mov r9, r1
    ldi r5, 0
    bne r9, r5, work
    la r10, table
    ldi r5, 3
    stw [r10+0], r5
    ldi r5, 5
    stw [r10+4], r5
    ldi r5, 7
    stw [r10+8], r5
work:
    la r1, table
    ldi r2, 4
    addi r3, fp, -8
    ldi r4, 0
    call MPI_Scatter
    ldw r5, [fp-8]
    shli r5, r5, 1
    stw [fp-8], r5
    addi r1, fp, -8
    ldi r2, 4
    la r3, table
    ldi r4, 0
    call MPI_Gather
    ldi r5, 0
    bne r9, r5, fin
    la r10, table
    ldw r5, [r10+0]
    ldw r6, [r10+4]
    add r5, r5, r6
    ldw r6, [r10+8]
    add r9, r5, r6       ; 6 + 10 + 14 = 30 (r9 survives the stubs)
    call MPI_Finalize
    mov r1, r9
    leave
    ret
fin:
    call MPI_Finalize
    ldi r1, 0
    leave
    ret
.bss
table: .space 12
)";

}  // namespace fsim::simmpi::testing::programs

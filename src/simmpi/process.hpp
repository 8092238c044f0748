// Process: one MPI rank — an SVM machine plus the simmpi library state.
//
// Implements the ADI (message matching, eager/rendezvous protocols,
// collectives built from point-to-point control messages) and the API
// (argument validation, error-handler semantics) on top of the Channel.
//
// Error-handler fidelity (paper §6.2): the user-registered error handler is
// invoked *only* when argument checks fail (a non-existent destination, an
// absurd count, an unreadable buffer) — exactly what the authors found in
// MPICH, LAM/MPI and LA-MPI source. Everything else (corrupted streams,
// peer death) aborts the job MPICH-style, which the classifier counts as a
// Crash.
//
// Incoming payloads are buffered in the *simulated* heap, tagged as
// MPI-owned chunks, so the heap's user/MPI composition matches the paper's
// malloc-wrapper picture and heap injection correctly skips them.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "simmpi/channel.hpp"
#include "simmpi/header.hpp"
#include "svm/env.hpp"
#include "svm/machine.hpp"

namespace fsim::simmpi {

class World;

inline constexpr std::uint32_t kMaxMessageBytes = 1u << 20;

class Process : public svm::BasicEnv {
 public:
  Process(World& world, svm::Machine& machine, int rank,
          std::uint64_t rand_seed);

  svm::Machine& machine() noexcept { return *machine_; }
  const svm::Machine& machine() const noexcept { return *machine_; }
  Channel& channel() noexcept { return channel_; }
  const Channel& channel() const noexcept { return channel_; }
  int rank() const noexcept { return rank_; }

  /// Did any syscall complete (or any packet get drained) since the flag was
  /// last cleared? The scheduler's deadlock detector uses this.
  bool take_progress() noexcept {
    const bool p = state_.progress;
    state_.progress = false;
    return p;
  }

  bool errhandler_registered() const noexcept { return state_.errhandler; }

  /// ADI-level view of validated incoming traffic (Table 1 companion).
  const TrafficStats& adi_stats() const noexcept { return state_.adi_stats; }

  // --- Checkpoint/restart support ---
  // The MPI library's complete per-rank state. Opaque to callers: hold it,
  // copy it, hand it back to restore_state(); its member types are
  // implementation details.
  struct State;
  State snapshot_state() const { return state_; }
  void restore_state(const State& s) { state_ = s; }

 protected:
  svm::SysResult on_mpi_syscall(svm::Machine& m, svm::Sys number) override;

 private:
  struct InMsg {
    MsgHeader header;
    svm::Addr buffer = 0;  // simulated-heap chunk holding the payload
  };

  // --- Nonblocking requests (MPI 1.1 §3.7) ---
  struct Request {
    enum class Kind : std::uint8_t { kFree, kSend, kRecv };
    Kind kind = Kind::kFree;
    bool complete = false;
    // send side (rendezvous in flight):
    std::vector<std::byte> payload;
    std::uint32_t seq = 0;
    bool rts = false;
    bool auto_free = false;  // release the slot on completion (Sendrecv)
    // common envelope:
    int peer = -1;  // dest for sends; requested src (or any) for recvs
    std::int32_t tag = 0;
    // recv side:
    svm::Addr buf = 0;
    std::uint32_t cap = 0;
    std::uint32_t bytes = 0;  // delivered payload size
  };

  // Rendezvous sender state (one outstanding blocking send).
  struct RndvState {
    bool active = false;
    std::uint32_t seq = 0;
  };

  // Collective progress (one outstanding blocking collective).
  struct CollState {
    int phase = 0;      // op-specific progress
    int counter = 0;    // tokens/contributions received (flat algorithms)
    bool sent = false;  // this rank's token/contribution was sent
    // Binomial-tree stages of barrier, bcast and reduce (gather and scatter
    // are flat): `mask` is the stage of the gather up the tree (barrier,
    // reduce) or of the forward down it (bcast); `mask2` is the stage of
    // allreduce's result broadcast down the tree.
    std::uint32_t mask = 0;
    std::uint32_t mask2 = 0;
    std::vector<double> accum;  // reduce accumulator
  };

 public:
  struct State {
    TrafficStats adi_stats;
    bool initialized = false;
    bool finalized = false;
    bool errhandler = false;
    bool progress = false;
    std::uint32_t send_seq = 0;
    std::deque<InMsg> inbox;
    RndvState rndv;
    std::vector<Request> requests;
    // Request id of an in-flight MPI_Sendrecv receive half.
    std::uint32_t blocking_sendrecv = 0;
    // CTS already issued for these (src, seq) pairs; cleared on data match.
    std::set<std::pair<int, std::uint32_t>> cts_sent;
    CollState coll;
    std::uint32_t barrier_epoch = 0;
    std::uint32_t bcast_epoch = 0;
    std::uint32_t reduce_epoch = 0;
    std::uint32_t gather_epoch = 0;
    std::uint32_t scatter_epoch = 0;
  };

 private:
  // --- API-level helpers ---
  svm::SysResult arg_error(const std::string& which, const std::string& why);
  svm::SysResult mpich_fatal(const std::string& why);
  svm::SysResult done() {
    state_.progress = true;
    return svm::SysResult::kDone;
  }
  /// End the current collective: clear its progress and advance `epoch`.
  svm::SysResult finish_collective(std::uint32_t& epoch) {
    state_.coll = {};
    ++epoch;
    return done();
  }

  /// MPI_Send/MPI_Isend arguments (buf, len, dest, tag in the argument
  /// registers), checked, with the send buffer's bytes read.
  struct SendArgs {
    int dest = 0;
    std::int32_t tag = 0;
    std::vector<std::byte> payload;
  };
  /// MPI_Recv/MPI_Irecv arguments (buf, cap, src, tag), checked.
  struct RecvArgs {
    svm::Addr buf = 0;
    std::uint32_t cap = 0;
    int src = 0;
    std::int32_t tag = 0;
  };
  /// Read and check the arguments of the send-side call `name` into `out`.
  /// Returns kDone, or the result of the error path it ran.
  svm::SysResult send_args(svm::Machine& m, const char* name, SendArgs& out);
  /// Read and check the arguments of the receive-side call `name` into
  /// `out`. Returns kDone, or the result of the error path it ran.
  svm::SysResult recv_args(svm::Machine& m, const char* name, RecvArgs& out);

  // --- ADI ---
  /// Drain and validate everything pending on the channel into the inbox.
  /// Returns false if a fatal protocol error was raised.
  bool pump_channel();
  /// Find-and-remove the first inbox message matching the predicate.
  template <typename Pred>
  std::optional<InMsg> match(Pred pred);
  /// Take the first buffered data message from `src` (or any source) with
  /// `tag`, forgetting any CTS issued for it.
  std::optional<InMsg> take_data(int src, std::int32_t tag);
  /// Push a data message (header + payload) from this rank to `dest`.
  void send_data(int dest, std::int32_t tag, std::uint32_t seq,
                 std::span<const std::byte> payload,
                 std::uint32_t ctrl_arg = 0);
  /// Push a header-only control message from this rank to `dest`.
  void send_control(CtrlOp op, int dest, std::int32_t tag,
                    std::uint32_t ctrl_arg, std::uint32_t seq = 0);
  /// The payload of a buffered message (non-empty), read from its chunk.
  std::vector<std::byte> payload_of(const InMsg& msg) const;
  /// Copy a buffered message's payload into user memory at `dest`; false
  /// if `dest` is not writable. An empty payload copies nothing.
  bool deliver(const InMsg& msg, svm::Addr dest);
  void release(const InMsg& msg);

  // --- Rendezvous steps ---
  /// Receiver: answer the first inbox RTS from `src` (or any source) with
  /// `tag` that has no CTS yet, so its sender can push the payload. An RTS
  /// with an out-of-range (corrupted) source gets no CTS.
  void answer_rts(int src, std::int32_t tag);
  /// Sender: once the CTS for (dest, seq) is in the inbox, consume it and
  /// push the DATA packet. False while the CTS is still missing.
  bool send_on_cts(int dest, std::int32_t tag, std::uint32_t seq,
                   std::span<const std::byte> payload);

  // --- Reduce arithmetic (count doubles of user memory or payload) ---
  bool read_doubles(svm::Addr addr, std::uint32_t count,
                    std::vector<double>& out);
  bool write_doubles(svm::Addr addr, const std::vector<double>& in);
  /// Add a buffered contribution, elementwise, into coll.accum.
  void accumulate(const InMsg& msg);

  std::uint32_t alloc_request();
  Request* request(std::uint32_t id);
  /// Drive pending nonblocking operations: finish rendezvous sends whose
  /// CTS arrived, deliver inbox messages to posted receives (in post
  /// order), and answer rendezvous requests for posted receives. Returns
  /// false if a fatal protocol error was raised.
  bool progress();

  // --- Individual operations ---
  svm::SysResult do_init(svm::Machine& m);
  svm::SysResult do_finalize(svm::Machine& m);
  svm::SysResult do_send(svm::Machine& m);
  svm::SysResult do_recv(svm::Machine& m);
  svm::SysResult do_barrier(svm::Machine& m);
  svm::SysResult do_bcast(svm::Machine& m);
  svm::SysResult do_reduce(svm::Machine& m, bool all);
  // Binomial-tree variants (dispatched on WorldOptions::collectives).
  svm::SysResult do_barrier_tree(svm::Machine& m);
  svm::SysResult do_bcast_tree(svm::Machine& m, svm::Addr buf,
                               std::uint32_t len, int root);
  svm::SysResult do_reduce_tree(svm::Machine& m, bool all, svm::Addr sendbuf,
                                svm::Addr recvbuf, std::uint32_t count,
                                int root);
  svm::SysResult do_isend(svm::Machine& m);
  svm::SysResult do_irecv(svm::Machine& m);
  svm::SysResult do_wait(svm::Machine& m);
  svm::SysResult do_test(svm::Machine& m);
  svm::SysResult do_probe(svm::Machine& m);
  svm::SysResult do_sendrecv(svm::Machine& m);
  svm::SysResult do_gather(svm::Machine& m);
  svm::SysResult do_scatter(svm::Machine& m);

  World* world_;
  svm::Machine* machine_;
  Channel channel_;
  int rank_ = 0;
  State state_;
};

}  // namespace fsim::simmpi

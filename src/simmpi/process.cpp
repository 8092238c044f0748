#include "simmpi/process.hpp"

#include <cstring>

#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::simmpi {

using svm::Addr;
using svm::ExitKind;
using svm::Machine;
using svm::Sys;
using svm::SysResult;

namespace {

// Marks the reduce epoch of allreduce's result broadcast, which travels
// under the same tag as the contributions.
constexpr std::uint32_t kResultFlag = 0x80000000u;

std::vector<std::byte> bytes_of(const std::vector<double>& v) {
  std::vector<std::byte> raw(v.size() * sizeof(double));
  if (!raw.empty()) std::memcpy(raw.data(), v.data(), raw.size());
  return raw;
}

}  // namespace

Process::Process(World& world, Machine& machine, int rank,
                 std::uint64_t rand_seed)
    : BasicEnv(machine, rand_seed), world_(&world), machine_(&machine),
      rank_(rank) {}

// ---------------------------------------------------------------------------
// Error paths
// ---------------------------------------------------------------------------

SysResult Process::arg_error(const std::string& which, const std::string& why) {
  // Paper §6.2: MPICH (and LAM/LA-MPI) raise the user-registered error
  // handler only for failed argument checks; without a handler the default
  // MPI_ERRORS_ARE_FATAL aborts the job.
  if (state_.errhandler) {
    append_console("MPI ERROR HANDLER invoked: " + which + ": " + why + "\n");
    machine_->finish(13, ExitKind::kMpiHandler);
    state_.progress = true;
    return SysResult::kExit;
  }
  return mpich_fatal(which + ": " + why);
}

SysResult Process::mpich_fatal(const std::string& why) {
  append_console("MPICH fatal error in rank " + std::to_string(rank_) + ": " +
                 why + "\n");
  machine_->finish(1, ExitKind::kMpiFatal);
  state_.progress = true;
  world_->post_fatal(rank_, why);
  return SysResult::kExit;
}

// ---------------------------------------------------------------------------
// Argument checks
// ---------------------------------------------------------------------------

SysResult Process::send_args(Machine& m, const char* name, SendArgs& out) {
  const Addr buf = m.arg(0);
  const std::uint32_t len = m.arg(1);
  out.dest = static_cast<std::int32_t>(m.arg(2));
  out.tag = static_cast<std::int32_t>(m.arg(3));

  if (!state_.initialized || state_.finalized)
    return mpich_fatal(std::string(name) + " outside init/finalize window");
  if (out.dest < 0 || out.dest >= world_->size())
    return arg_error(name,
                     "invalid destination rank " + std::to_string(out.dest));
  if (len > kMaxMessageBytes)
    return arg_error(name, "invalid count " + std::to_string(len));
  if (out.tag < 0 || out.tag >= kReservedTagBase)
    return arg_error(name, "invalid tag " + std::to_string(out.tag));

  out.payload.resize(len);
  if (len > 0 && !machine_->memory().peek_span(buf, out.payload))
    return arg_error(name, "unreadable send buffer");
  return SysResult::kDone;
}

SysResult Process::recv_args(Machine& m, const char* name, RecvArgs& out) {
  out.buf = m.arg(0);
  out.cap = m.arg(1);
  out.src = static_cast<std::int32_t>(m.arg(2));
  out.tag = static_cast<std::int32_t>(m.arg(3));

  if (!state_.initialized || state_.finalized)
    return mpich_fatal(std::string(name) + " outside init/finalize window");
  if (out.src < kAnySource || out.src >= world_->size())
    return arg_error(name, "invalid source rank " + std::to_string(out.src));
  if (out.cap > kMaxMessageBytes)
    return arg_error(name, "invalid count " + std::to_string(out.cap));
  if (out.tag < 0 || out.tag >= kReservedTagBase)
    return arg_error(name, "invalid tag " + std::to_string(out.tag));
  if (out.cap > 0) {
    std::uint8_t probe = 0;
    if (!machine_->memory().peek8(out.buf, probe) ||
        !machine_->memory().peek8(out.buf + out.cap - 1, probe))
      return arg_error(name, "unwritable receive buffer");
  }
  return SysResult::kDone;
}

// ---------------------------------------------------------------------------
// ADI: channel pump, matching, buffering
// ---------------------------------------------------------------------------

bool Process::pump_channel() {
  while (auto packet = channel_.drain()) {
    state_.progress = true;
    if (packet->size() < kHeaderBytes) {
      mpich_fatal("short read on channel (corrupted stream)");
      return false;
    }
    MsgHeader h = parse_header(*packet);
    const std::uint32_t actual_payload =
        static_cast<std::uint32_t>(packet->size()) - kHeaderBytes;
    // Header validation — the checks a real ADI performs while decoding the
    // byte stream. A corrupted header usually dies here (paper: header
    // perturbation has ~40% probability of corrupting the execution; the
    // remainder hits don't-care fields).
    if (h.magic != kHeaderMagic) {
      mpich_fatal("bad packet magic (corrupted stream)");
      return false;
    }
    if (h.kind != static_cast<std::uint32_t>(MsgKind::kControl) &&
        h.kind != static_cast<std::uint32_t>(MsgKind::kData)) {
      mpich_fatal("unknown message kind");
      return false;
    }
    // ch_p4 does not re-validate src/dst on receipt: the packet is already
    // in this rank's queue. A corrupted src simply fails to match posted
    // receives (hanging the job, or matching an ANY_SOURCE receive with the
    // wrong neighbour's identity); a corrupted dst is entirely harmless.
    if (h.payload_len != actual_payload) {
      mpich_fatal("payload length mismatch (header says " +
                  std::to_string(h.payload_len) + ", stream has " +
                  std::to_string(actual_payload) + ")");
      return false;
    }
    if (h.msg_kind() == MsgKind::kControl) {
      if (h.control_op() == CtrlOp::kNone ||
          h.control_op() > CtrlOp::kBarrierRel) {
        mpich_fatal("unknown control opcode");
        return false;
      }
      if (actual_payload != 0) {
        mpich_fatal("control message with payload");
        return false;
      }
      ++state_.adi_stats.control_messages;
      state_.adi_stats.header_bytes += kHeaderBytes;
      state_.inbox.push_back(InMsg{h, 0});
      continue;
    }

    // Data message: buffer the payload in the simulated heap, tagged as an
    // MPI-library allocation (paper §3.2 malloc wrapper).
    Addr buf = 0;
    if (actual_payload > 0) {
      heap().set_mpi_context(true);
      buf = heap().malloc(actual_payload);
      heap().set_mpi_context(false);
      if (buf == 0) {
        mpich_fatal("out of memory buffering unexpected message");
        return false;
      }
      FSIM_CHECK(machine_->memory().poke_span(
          buf, std::span<const std::byte>(packet->data() + kHeaderBytes,
                                          actual_payload)));
    }
    ++state_.adi_stats.data_messages;
    state_.adi_stats.header_bytes += kHeaderBytes;
    state_.adi_stats.payload_bytes += actual_payload;
    state_.inbox.push_back(InMsg{h, buf});
  }
  return true;
}

template <typename Pred>
std::optional<Process::InMsg> Process::match(Pred pred) {
  for (auto it = state_.inbox.begin(); it != state_.inbox.end(); ++it) {
    if (pred(it->header)) {
      InMsg m = *it;
      state_.inbox.erase(it);
      state_.progress = true;
      return m;
    }
  }
  return std::nullopt;
}

std::optional<Process::InMsg> Process::take_data(int src, std::int32_t tag) {
  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == tag &&
           (src == kAnySource || h.src == src);
  });
  if (msg) state_.cts_sent.erase({msg->header.src, msg->header.seq});
  return msg;
}

void Process::send_data(int dest, std::int32_t tag, std::uint32_t seq,
                        std::span<const std::byte> payload,
                        std::uint32_t ctrl_arg) {
  MsgHeader h;
  h.kind = static_cast<std::uint32_t>(MsgKind::kData);
  h.src = rank_;
  h.dst = dest;
  h.tag = tag;
  h.seq = seq;
  h.payload_len = static_cast<std::uint32_t>(payload.size());
  h.ctrl_arg = ctrl_arg;
  world_->enqueue_to(dest, serialize_packet(h, payload));
}

void Process::send_control(CtrlOp op, int dest, std::int32_t tag,
                           std::uint32_t ctrl_arg, std::uint32_t seq) {
  MsgHeader h;
  h.kind = static_cast<std::uint32_t>(MsgKind::kControl);
  h.ctrl_op = static_cast<std::uint32_t>(op);
  h.src = rank_;
  h.dst = dest;
  h.tag = tag;
  h.seq = seq;
  h.ctrl_arg = ctrl_arg;
  world_->enqueue_to(dest, serialize_packet(h, {}));
}

std::vector<std::byte> Process::payload_of(const InMsg& msg) const {
  std::vector<std::byte> bytes(msg.header.payload_len);
  FSIM_CHECK(machine_->memory().peek_span(msg.buffer, bytes));
  return bytes;
}

bool Process::deliver(const InMsg& msg, Addr dest) {
  if (msg.header.payload_len == 0) return true;
  return machine_->memory().poke_span(dest, payload_of(msg));
}

void Process::release(const InMsg& msg) {
  if (msg.buffer != 0) heap().free(msg.buffer);
}

// ---------------------------------------------------------------------------
// Rendezvous steps: RTS -> CTS -> DATA
// ---------------------------------------------------------------------------

void Process::answer_rts(int src, std::int32_t tag) {
  for (const InMsg& im : state_.inbox) {
    const MsgHeader& h = im.header;
    if (h.msg_kind() == MsgKind::kControl &&
        h.control_op() == CtrlOp::kRts && h.tag == tag &&
        (src == kAnySource || h.src == src) &&
        h.src >= 0 && h.src < world_->size() &&  // corrupted src: no CTS
        !state_.cts_sent.count({h.src, h.seq})) {
      state_.cts_sent.insert({h.src, h.seq});
      // The CTS echoes the RTS sequence number.
      send_control(CtrlOp::kCts, h.src, h.tag, /*ctrl_arg=*/h.seq);
      return;
    }
  }
}

bool Process::send_on_cts(int dest, std::int32_t tag, std::uint32_t seq,
                          std::span<const std::byte> payload) {
  auto cts = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kControl &&
           h.control_op() == CtrlOp::kCts && h.src == dest &&
           h.ctrl_arg == seq;
  });
  if (!cts) return false;
  send_data(dest, tag, seq, payload);
  return true;
}

// ---------------------------------------------------------------------------
// Syscall dispatch
// ---------------------------------------------------------------------------

SysResult Process::on_mpi_syscall(Machine& m, Sys number) {
  switch (number) {
    case Sys::kMpiInit:
      return do_init(m);
    case Sys::kMpiFinalize:
      return do_finalize(m);
    case Sys::kMpiCommRank:
      if (!state_.initialized)
        return mpich_fatal("MPI_Comm_rank before MPI_Init");
      m.set_result(static_cast<std::uint32_t>(rank_));
      return done();
    case Sys::kMpiCommSize:
      if (!state_.initialized)
        return mpich_fatal("MPI_Comm_size before MPI_Init");
      m.set_result(static_cast<std::uint32_t>(world_->size()));
      return done();
    case Sys::kMpiSend:
      return do_send(m);
    case Sys::kMpiRecv:
      return do_recv(m);
    case Sys::kMpiBarrier:
      return do_barrier(m);
    case Sys::kMpiBcast:
      return do_bcast(m);
    case Sys::kMpiAllreduceSum:
      return do_reduce(m, /*all=*/true);
    case Sys::kMpiReduceSum:
      return do_reduce(m, /*all=*/false);
    case Sys::kMpiErrhandlerSet:
      if (!state_.initialized)
        return mpich_fatal("MPI_Errhandler_set before MPI_Init");
      state_.errhandler = m.arg(0) != 0;
      return done();
    case Sys::kMpiIsend:
      return do_isend(m);
    case Sys::kMpiIrecv:
      return do_irecv(m);
    case Sys::kMpiWait:
      return do_wait(m);
    case Sys::kMpiTest:
      return do_test(m);
    case Sys::kMpiProbe:
      return do_probe(m);
    case Sys::kMpiSendrecv:
      return do_sendrecv(m);
    case Sys::kMpiGather:
      return do_gather(m);
    case Sys::kMpiScatter:
      return do_scatter(m);
    default:
      m.raise(svm::Trap::kBadSyscall, m.regs().pc);
      return SysResult::kTrap;
  }
}

SysResult Process::do_init(Machine& m) {
  if (state_.initialized) return mpich_fatal("MPI_Init called twice");
  state_.initialized = true;
  (void)m;
  return done();
}

SysResult Process::do_finalize(Machine& m) {
  if (!state_.initialized) return mpich_fatal("MPI_Finalize before MPI_Init");
  if (state_.finalized) return mpich_fatal("MPI_Finalize called twice");
  state_.finalized = true;
  (void)m;
  return done();
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

SysResult Process::do_send(Machine& m) {
  // A blocked send retries from here: its arguments and send buffer are
  // read, checked and charged again on every retry.
  SendArgs a;
  if (const SysResult res = send_args(m, "MPI_Send", a);
      res != SysResult::kDone)
    return res;
  const auto len = static_cast<std::uint32_t>(a.payload.size());

  m.charge(40 + len / 32);  // library overhead model

  if (len <= world_->eager_threshold()) {
    send_data(a.dest, a.tag, state_.send_seq++, a.payload);
    return done();
  }

  // Rendezvous: RTS -> (block) -> CTS -> DATA.
  RndvState& rndv = state_.rndv;
  if (!rndv.active) {
    rndv.active = true;
    rndv.seq = state_.send_seq++;
    // The RTS advertises the payload size.
    send_control(CtrlOp::kRts, a.dest, a.tag, /*ctrl_arg=*/len, rndv.seq);
    return SysResult::kBlock;
  }
  if (!pump_channel()) return SysResult::kExit;
  if (!send_on_cts(a.dest, a.tag, rndv.seq, a.payload))
    return SysResult::kBlock;
  rndv = {};
  return done();
}

SysResult Process::do_recv(Machine& m) {
  RecvArgs a;
  if (const SysResult res = recv_args(m, "MPI_Recv", a);
      res != SysResult::kDone)
    return res;

  if (!pump_channel()) return SysResult::kExit;

  auto msg = take_data(a.src, a.tag);
  if (!msg) {
    // No data yet: answer any matching rendezvous request so the sender
    // can push the payload.
    answer_rts(a.src, a.tag);
    return SysResult::kBlock;
  }
  if (msg->header.payload_len > a.cap) {
    release(*msg);
    return mpich_fatal("message truncated (got " +
                       std::to_string(msg->header.payload_len) +
                       " bytes, buffer holds " + std::to_string(a.cap) + ")");
  }
  if (!deliver(*msg, a.buf)) {
    release(*msg);
    return arg_error("MPI_Recv", "unwritable receive buffer");
  }
  release(*msg);
  m.charge(40 + msg->header.payload_len / 32);
  m.set_result(msg->header.payload_len);
  return done();
}

// ---------------------------------------------------------------------------
// Nonblocking point-to-point (MPI 1.1 Sec 3.7)
// ---------------------------------------------------------------------------

std::uint32_t Process::alloc_request() {
  std::vector<Request>& requests = state_.requests;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].kind == Request::Kind::kFree) {
      requests[i] = Request{};
      return static_cast<std::uint32_t>(i + 1);
    }
  }
  requests.push_back(Request{});
  return static_cast<std::uint32_t>(requests.size());
}

Process::Request* Process::request(std::uint32_t id) {
  if (id == 0 || id > state_.requests.size()) return nullptr;
  Request* r = &state_.requests[id - 1];
  return r->kind == Request::Kind::kFree ? nullptr : r;
}

bool Process::progress() {
  if (!pump_channel()) return false;

  // 1. Rendezvous sends whose CTS arrived: push the data packet.
  for (Request& r : state_.requests) {
    if (r.kind != Request::Kind::kSend || r.complete || !r.rts) continue;
    if (!send_on_cts(r.peer, r.tag, r.seq, r.payload)) continue;
    r.payload.clear();
    r.complete = true;
    if (r.auto_free) r = Request{};
  }

  // 2. Posted receives, in posting order (MPI matching semantics).
  for (Request& r : state_.requests) {
    if (r.kind != Request::Kind::kRecv || r.complete) continue;
    auto msg = take_data(r.peer, r.tag);
    if (!msg) {
      // No data yet: answer one matching rendezvous request.
      answer_rts(r.peer, r.tag);
      continue;
    }
    if (msg->header.payload_len > r.cap) {
      release(*msg);
      mpich_fatal("message truncated (posted receive)");
      return false;
    }
    if (!deliver(*msg, r.buf)) {
      release(*msg);
      mpich_fatal("unwritable buffer of posted receive");
      return false;
    }
    r.bytes = msg->header.payload_len;
    r.complete = true;
    release(*msg);
    machine_->charge(40 + r.bytes / 32);
  }
  return true;
}

svm::SysResult Process::do_isend(Machine& m) {
  SendArgs a;
  if (const SysResult res = send_args(m, "MPI_Isend", a);
      res != SysResult::kDone)
    return res;
  const auto len = static_cast<std::uint32_t>(a.payload.size());

  m.charge(40 + len / 32);
  const std::uint32_t id = alloc_request();
  Request& r = state_.requests[id - 1];
  r.kind = Request::Kind::kSend;
  r.peer = a.dest;
  r.tag = a.tag;

  if (len <= world_->eager_threshold()) {
    send_data(a.dest, a.tag, state_.send_seq++, a.payload);
    r.complete = true;  // buffered: the payload is on the wire
  } else {
    r.seq = state_.send_seq++;
    r.rts = true;
    r.payload = std::move(a.payload);
    send_control(CtrlOp::kRts, a.dest, a.tag, /*ctrl_arg=*/len, r.seq);
  }
  m.set_result(id);
  return done();
}

svm::SysResult Process::do_irecv(Machine& m) {
  RecvArgs a;
  if (const SysResult res = recv_args(m, "MPI_Irecv", a);
      res != SysResult::kDone)
    return res;

  const std::uint32_t id = alloc_request();
  Request& r = state_.requests[id - 1];
  r.kind = Request::Kind::kRecv;
  r.buf = a.buf;
  r.cap = a.cap;
  r.peer = a.src;
  r.tag = a.tag;
  m.set_result(id);
  return done();
}

svm::SysResult Process::do_wait(Machine& m) {
  if (!state_.initialized) return mpich_fatal("MPI_Wait before MPI_Init");
  const std::uint32_t id = m.arg(0);
  Request* r = request(id);
  if (r == nullptr)
    return arg_error("MPI_Wait", "invalid request " + std::to_string(id));
  if (!progress()) return svm::SysResult::kExit;
  if (!r->complete) return svm::SysResult::kBlock;
  m.set_result(r->bytes);
  *r = Request{};  // free the slot
  return done();
}

svm::SysResult Process::do_test(Machine& m) {
  if (!state_.initialized) return mpich_fatal("MPI_Test before MPI_Init");
  const std::uint32_t id = m.arg(0);
  Request* r = request(id);
  if (r == nullptr)
    return arg_error("MPI_Test", "invalid request " + std::to_string(id));
  if (!progress()) return svm::SysResult::kExit;
  if (!r->complete) {
    m.set_result(0xffffffffu);
    return done();
  }
  m.set_result(r->bytes);
  *r = Request{};
  return done();
}

svm::SysResult Process::do_probe(Machine& m) {
  const int src = static_cast<std::int32_t>(m.arg(0));
  const std::int32_t tag = static_cast<std::int32_t>(m.arg(1));
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Probe outside init/finalize window");
  if (src < kAnySource || src >= world_->size())
    return arg_error("MPI_Probe", "invalid source rank " + std::to_string(src));
  if (tag < 0 || tag >= kReservedTagBase)
    return arg_error("MPI_Probe", "invalid tag " + std::to_string(tag));
  if (!progress()) return svm::SysResult::kExit;
  for (const InMsg& im : state_.inbox) {
    const MsgHeader& h = im.header;
    const bool src_ok = src == kAnySource || h.src == src;
    if (h.msg_kind() == MsgKind::kData && h.tag == tag && src_ok) {
      m.set_result(h.payload_len);
      return done();
    }
    if (h.msg_kind() == MsgKind::kControl &&
        h.control_op() == CtrlOp::kRts && h.tag == tag && src_ok) {
      m.set_result(h.ctrl_arg);  // the advertised rendezvous length
      return done();
    }
  }
  return svm::SysResult::kBlock;
}

svm::SysResult Process::do_sendrecv(Machine& m) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Sendrecv outside init/finalize window");
  // Parameters arrive as an 8-word block in simulated memory.
  const Addr block = m.arg(0);
  std::uint32_t p[8];
  for (int i = 0; i < 8; ++i) {
    if (!machine_->memory().peek32(block + 4 * static_cast<Addr>(i), p[i]))
      return arg_error("MPI_Sendrecv", "unreadable parameter block");
  }

  if (state_.blocking_sendrecv == 0) {
    // First execution: launch both halves through the request machinery by
    // reusing the Isend/Irecv argument registers.
    svm::RegFile saved = m.regs();
    m.regs().gpr[1] = p[0];
    m.regs().gpr[2] = p[1];
    m.regs().gpr[3] = p[2];
    m.regs().gpr[4] = p[3];
    svm::SysResult sr = do_isend(m);
    const std::uint32_t send_id = m.regs().gpr[1];
    if (sr != svm::SysResult::kDone) return sr;  // arg error path
    m.regs().gpr[1] = p[4];
    m.regs().gpr[2] = p[5];
    m.regs().gpr[3] = p[6];
    m.regs().gpr[4] = p[7];
    sr = do_irecv(m);
    const std::uint32_t recv_id = m.regs().gpr[1];
    if (sr != svm::SysResult::kDone) return sr;
    m.regs() = saved;
    // The send half is buffered/asynchronous; only the receive half gates
    // completion. Remember it across retries.
    state_.blocking_sendrecv = recv_id;
    if (Request* send_req = request(send_id)) {
      if (send_req->complete)
        *send_req = Request{};
      else
        send_req->auto_free = true;  // reclaim once the rendezvous finishes
    }
  }

  if (!progress()) return svm::SysResult::kExit;
  Request* r = request(state_.blocking_sendrecv);
  FSIM_CHECK(r != nullptr);
  if (!r->complete) return svm::SysResult::kBlock;
  m.set_result(r->bytes);
  *r = Request{};
  state_.blocking_sendrecv = 0;
  return done();
}

// ---------------------------------------------------------------------------
// Collectives (flat algorithms over the same channels, so their handshakes
// appear as injectable control traffic — the source of CAM's header-heavy
// profile in Table 1)
// ---------------------------------------------------------------------------

SysResult Process::do_barrier(Machine& m) {
  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Barrier outside init/finalize window");
  m.charge(20);
  const int n = world_->size();
  if (n == 1) return done();
  if (world_->collective_algorithm() == CollectiveAlgorithm::kBinomialTree)
    return do_barrier_tree(m);

  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.barrier_epoch;
  if (rank_ != 0) {
    if (!coll.sent) {
      coll.sent = true;
      send_control(CtrlOp::kBarrier, 0, kTagBarrier, epoch);
    }
    auto rel = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kControl &&
             h.control_op() == CtrlOp::kBarrierRel && h.ctrl_arg == epoch;
    });
    if (!rel) return SysResult::kBlock;
    return finish_collective(state_.barrier_epoch);
  }

  // Rank 0 gathers arrival tokens, then releases everyone.
  while (true) {
    auto tok = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kControl &&
             h.control_op() == CtrlOp::kBarrier && h.ctrl_arg == epoch;
    });
    if (!tok) break;
    ++coll.counter;
  }
  if (coll.counter < n - 1) return SysResult::kBlock;
  for (int r = 1; r < n; ++r)
    send_control(CtrlOp::kBarrierRel, r, kTagBarrier, epoch);
  return finish_collective(state_.barrier_epoch);
}

SysResult Process::do_bcast(Machine& m) {
  const Addr buf = m.arg(0);
  const std::uint32_t len = m.arg(1);
  const int root = static_cast<std::int32_t>(m.arg(2));

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Bcast outside init/finalize window");
  if (root < 0 || root >= world_->size())
    return arg_error("MPI_Bcast", "invalid root " + std::to_string(root));
  if (len > kMaxMessageBytes)
    return arg_error("MPI_Bcast", "invalid count " + std::to_string(len));

  m.charge(30 + len / 32);
  const int n = world_->size();
  if (n > 1 &&
      world_->collective_algorithm() == CollectiveAlgorithm::kBinomialTree)
    return do_bcast_tree(m, buf, len, root);

  const std::uint32_t epoch = state_.bcast_epoch;
  if (rank_ == root) {
    std::vector<std::byte> payload(len);
    if (len > 0 && !machine_->memory().peek_span(buf, payload))
      return arg_error("MPI_Bcast", "unreadable buffer");
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      send_data(r, kTagBcast, state_.send_seq++, payload, epoch);
    }
    ++state_.bcast_epoch;
    return done();
  }

  if (!pump_channel()) return SysResult::kExit;
  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagBcast &&
           h.src == root && h.ctrl_arg == epoch;
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != len) {
    release(*msg);
    return mpich_fatal("MPI_Bcast size mismatch");
  }
  if (!deliver(*msg, buf)) {
    release(*msg);
    return arg_error("MPI_Bcast", "unwritable buffer");
  }
  release(*msg);
  ++state_.bcast_epoch;
  return done();
}

bool Process::read_doubles(Addr addr, std::uint32_t count,
                           std::vector<double>& out) {
  out.resize(count);
  std::vector<std::byte> raw(count * sizeof(double));
  if (raw.empty()) return true;
  if (!machine_->memory().peek_span(addr, raw)) return false;
  std::memcpy(out.data(), raw.data(), raw.size());
  return true;
}

bool Process::write_doubles(Addr addr, const std::vector<double>& in) {
  return in.empty() || machine_->memory().poke_span(addr, bytes_of(in));
}

void Process::accumulate(const InMsg& msg) {
  if (msg.header.payload_len == 0) return;
  const std::vector<std::byte> raw = payload_of(msg);
  std::vector<double> vals(raw.size() / sizeof(double));
  std::memcpy(vals.data(), raw.data(), raw.size());
  for (std::size_t i = 0; i < vals.size(); ++i) state_.coll.accum[i] += vals[i];
}

SysResult Process::do_reduce(Machine& m, bool all) {
  const Addr sendbuf = m.arg(0);
  const Addr recvbuf = m.arg(1);
  const std::uint32_t count = m.arg(2);
  const int root = all ? 0 : static_cast<std::int32_t>(m.arg(3));
  const char* name = all ? "MPI_Allreduce" : "MPI_Reduce";

  if (!state_.initialized || state_.finalized)
    return mpich_fatal(std::string(name) + " outside init/finalize window");
  if (root < 0 || root >= world_->size())
    return arg_error(name, "invalid root " + std::to_string(root));
  if (count > kMaxMessageBytes / 8)
    return arg_error(name, "invalid count " + std::to_string(count));

  const std::uint32_t bytes = count * 8;
  m.charge(30 + count);
  const int n = world_->size();
  if (n > 1 &&
      world_->collective_algorithm() == CollectiveAlgorithm::kBinomialTree)
    return do_reduce_tree(m, all, sendbuf, recvbuf, count, root);

  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.reduce_epoch;
  // Phase 0: contribute (non-root) or gather (root).
  if (coll.phase == 0) {
    if (rank_ != root) {
      if (!coll.sent) {
        std::vector<std::byte> payload(bytes);
        if (bytes > 0 && !machine_->memory().peek_span(sendbuf, payload))
          return arg_error(name, "unreadable send buffer");
        coll.sent = true;
        send_data(root, kTagReduce, state_.send_seq++, payload, epoch);
      }
      // Plain reduce: non-roots are done after contributing.
      if (!all) return finish_collective(state_.reduce_epoch);
      coll.phase = 1;  // allreduce: wait for the result broadcast
    } else {
      if (coll.accum.empty() && !read_doubles(sendbuf, count, coll.accum))
        return arg_error(name, "unreadable send buffer");
      // Accumulate contributions in ARRIVAL order: with scheduler jitter the
      // order varies between seeds, so low-order floating-point bits differ —
      // the NAMD-style nondeterminism of §4.2.2.
      while (coll.counter < n - 1) {
        auto msg = match([&](const MsgHeader& h) {
          return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
                 h.ctrl_arg == epoch;
        });
        if (!msg) break;
        if (msg->header.payload_len != bytes) {
          release(*msg);
          return mpich_fatal(std::string(name) + " size mismatch");
        }
        accumulate(*msg);
        release(*msg);
        ++coll.counter;
      }
      if (coll.counter < n - 1) return SysResult::kBlock;
      if (!write_doubles(recvbuf, coll.accum))
        return arg_error(name, "unwritable receive buffer");
      if (all) {
        // Broadcast the result inline.
        const std::vector<std::byte> payload = bytes_of(coll.accum);
        for (int r = 0; r < n; ++r) {
          if (r == root) continue;
          send_data(r, kTagReduce, state_.send_seq++, payload,
                    epoch | kResultFlag);
        }
      }
      return finish_collective(state_.reduce_epoch);
    }
  }

  // Phase 1 (allreduce non-root): receive the result broadcast.
  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
           h.src == root && h.ctrl_arg == (epoch | kResultFlag);
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != bytes) {
    release(*msg);
    return mpich_fatal(std::string(name) + " size mismatch");
  }
  if (!deliver(*msg, recvbuf)) {
    release(*msg);
    return arg_error(name, "unwritable receive buffer");
  }
  release(*msg);
  return finish_collective(state_.reduce_epoch);
}

// ---------------------------------------------------------------------------
// Binomial-tree collectives (log-depth alternatives; WorldOptions selects)
// ---------------------------------------------------------------------------

SysResult Process::do_barrier_tree(Machine& m) {
  (void)m;
  const std::uint32_t n = static_cast<std::uint32_t>(world_->size());
  const std::uint32_t v = static_cast<std::uint32_t>(rank_);
  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.barrier_epoch;
  if (coll.phase == 0) {
    // Gather: collect tokens from children (v+mask while bit clear), then
    // send our token to the parent at our lowest set bit.
    std::uint32_t mask = coll.mask ? coll.mask : 1;
    while (mask < n) {
      if (v & mask) {
        send_control(CtrlOp::kBarrier, static_cast<int>(v - mask),
                     kTagBarrier, epoch);
        coll.mask = mask;  // the parent edge, reused for the release
        coll.phase = 1;
        break;
      }
      if (v + mask < n) {
        auto tok = match([&](const MsgHeader& h) {
          return h.msg_kind() == MsgKind::kControl &&
                 h.control_op() == CtrlOp::kBarrier &&
                 h.src == static_cast<std::int32_t>(v + mask) &&
                 h.ctrl_arg == epoch;
        });
        if (!tok) {
          coll.mask = mask;
          return SysResult::kBlock;
        }
      }
      mask <<= 1;
    }
    if (coll.phase == 0) coll.phase = 2;  // v == 0: everyone arrived
  }

  if (coll.phase == 1) {
    auto rel = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kControl &&
             h.control_op() == CtrlOp::kBarrierRel &&
             h.src == static_cast<std::int32_t>(v - coll.mask) &&
             h.ctrl_arg == epoch;
    });
    if (!rel) return SysResult::kBlock;
    coll.phase = 2;
  }

  // Release our children along the gather edges.
  const std::uint32_t lsb = v == 0 ? 2 * n : (v & (~v + 1));
  for (std::uint32_t mask = 1; mask < n && mask < lsb; mask <<= 1) {
    if (v + mask >= n) continue;
    send_control(CtrlOp::kBarrierRel, static_cast<int>(v + mask), kTagBarrier,
                 epoch);
  }
  return finish_collective(state_.barrier_epoch);
}

SysResult Process::do_bcast_tree(Machine& m, Addr buf, std::uint32_t len,
                                 int root) {
  const std::uint32_t n = static_cast<std::uint32_t>(world_->size());
  const std::uint32_t v =
      static_cast<std::uint32_t>((rank_ - root + static_cast<int>(n)) %
                                 static_cast<int>(n));
  auto real = [&](std::uint32_t x) {
    return static_cast<int>((x + static_cast<std::uint32_t>(root)) % n);
  };
  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.bcast_epoch;
  if (coll.phase == 0) {
    if (v == 0) {
      coll.mask = 1;
      coll.phase = 1;
    } else {
      std::uint32_t hb = 1;
      while ((hb << 1) <= v) hb <<= 1;
      auto msg = match([&](const MsgHeader& h) {
        return h.msg_kind() == MsgKind::kData && h.tag == kTagBcast &&
               h.ctrl_arg == epoch && h.src == real(v - hb);
      });
      if (!msg) return SysResult::kBlock;
      if (msg->header.payload_len != len) {
        release(*msg);
        return mpich_fatal("MPI_Bcast size mismatch");
      }
      if (!deliver(*msg, buf)) {
        release(*msg);
        return arg_error("MPI_Bcast", "unwritable buffer");
      }
      release(*msg);
      coll.mask = hb << 1;
      coll.phase = 1;
    }
  }

  std::vector<std::byte> payload(len);
  if (len > 0 && !machine_->memory().peek_span(buf, payload))
    return arg_error("MPI_Bcast", "unreadable buffer");
  for (std::uint32_t mask = coll.mask; mask < n; mask <<= 1) {
    if (v < mask && v + mask < n)
      send_data(real(v + mask), kTagBcast, state_.send_seq++, payload, epoch);
  }
  (void)m;
  return finish_collective(state_.bcast_epoch);
}

SysResult Process::do_reduce_tree(Machine& m, bool all, Addr sendbuf,
                                  Addr recvbuf, std::uint32_t count,
                                  int root) {
  const char* name = all ? "MPI_Allreduce" : "MPI_Reduce";
  const std::uint32_t n = static_cast<std::uint32_t>(world_->size());
  const std::uint32_t v =
      static_cast<std::uint32_t>((rank_ - root + static_cast<int>(n)) %
                                 static_cast<int>(n));
  auto real = [&](std::uint32_t x) {
    return static_cast<int>((x + static_cast<std::uint32_t>(root)) % n);
  };
  const std::uint32_t bytes = count * 8;
  if (!pump_channel()) return SysResult::kExit;

  CollState& coll = state_.coll;
  const std::uint32_t epoch = state_.reduce_epoch;
  auto send_accum = [&](int dest, std::uint32_t ctrl_arg) {
    send_data(dest, kTagReduce, state_.send_seq++, bytes_of(coll.accum),
              ctrl_arg);
  };

  if (coll.phase == 0) {
    if (!read_doubles(sendbuf, count, coll.accum))
      return arg_error(name, "unreadable send buffer");
    coll.mask = 1;
    coll.phase = 1;
  }

  if (coll.phase == 1) {
    std::uint32_t mask = coll.mask;
    while (mask < n) {
      if (v & mask) {
        send_accum(real(v - mask), epoch);
        coll.mask = mask;
        coll.phase = all ? 3 : 2;
        break;
      }
      if (v + mask < n) {
        auto msg = match([&](const MsgHeader& h) {
          return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
                 h.ctrl_arg == epoch && h.src == real(v + mask);
        });
        if (!msg) {
          coll.mask = mask;
          return SysResult::kBlock;
        }
        if (msg->header.payload_len != bytes) {
          release(*msg);
          return mpich_fatal(std::string(name) + " size mismatch");
        }
        accumulate(*msg);
        release(*msg);
      }
      mask <<= 1;
    }
    if (coll.phase == 1) {
      // v == 0 holds the full reduction.
      if (!write_doubles(recvbuf, coll.accum))
        return arg_error(name, "unwritable receive buffer");
      if (!all) return finish_collective(state_.reduce_epoch);
      coll.mask2 = 1;
      coll.phase = 4;
    }
  }

  if (coll.phase == 2)  // plain reduce, contribution sent: done
    return finish_collective(state_.reduce_epoch);

  if (coll.phase == 3) {  // allreduce non-root: await the result broadcast
    std::uint32_t hb = 1;
    while ((hb << 1) <= v) hb <<= 1;
    auto msg = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kData && h.tag == kTagReduce &&
             h.ctrl_arg == (epoch | kResultFlag) && h.src == real(v - hb);
    });
    if (!msg) return SysResult::kBlock;
    if (msg->header.payload_len != bytes) {
      release(*msg);
      return mpich_fatal(std::string(name) + " size mismatch");
    }
    // The result is read from the buffered message once, before the user
    // buffer is written.
    if (bytes > 0)
      std::memcpy(coll.accum.data(), payload_of(*msg).data(), bytes);
    if (!write_doubles(recvbuf, coll.accum)) {
      release(*msg);
      return arg_error(name, "unwritable receive buffer");
    }
    release(*msg);
    coll.mask2 = hb << 1;
    coll.phase = 4;
  }

  // Phase 4: forward the result down the tree, then finish.
  for (std::uint32_t mask = coll.mask2; mask < n; mask <<= 1) {
    if (v < mask && v + mask < n)
      send_accum(real(v + mask), epoch | kResultFlag);
  }
  (void)m;
  return finish_collective(state_.reduce_epoch);
}

// ---------------------------------------------------------------------------
// Gather / Scatter (flat, rank-ordered placement)
// ---------------------------------------------------------------------------

SysResult Process::do_gather(Machine& m) {
  const Addr sendbuf = m.arg(0);
  const std::uint32_t bytes = m.arg(1);
  const Addr recvbuf = m.arg(2);
  const int root = static_cast<std::int32_t>(m.arg(3));
  const int n = world_->size();

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Gather outside init/finalize window");
  if (root < 0 || root >= n)
    return arg_error("MPI_Gather", "invalid root " + std::to_string(root));
  if (bytes > kMaxMessageBytes)
    return arg_error("MPI_Gather", "invalid count " + std::to_string(bytes));

  m.charge(30 + bytes / 32);
  if (!pump_channel()) return SysResult::kExit;

  const std::uint32_t epoch = state_.gather_epoch;
  if (rank_ != root) {
    std::vector<std::byte> payload(bytes);
    if (bytes > 0 && !machine_->memory().peek_span(sendbuf, payload))
      return arg_error("MPI_Gather", "unreadable send buffer");
    send_data(root, kTagGather, state_.send_seq++, payload, epoch);
    ++state_.gather_epoch;
    return done();
  }

  // Root: place its own block, then consume contributions by source rank.
  CollState& coll = state_.coll;
  if (coll.phase == 0) {
    std::vector<std::byte> own(bytes);
    if (bytes > 0 && !machine_->memory().peek_span(sendbuf, own))
      return arg_error("MPI_Gather", "unreadable send buffer");
    if (bytes > 0 &&
        !machine_->memory().poke_span(
            recvbuf + static_cast<Addr>(rank_) * bytes, own))
      return arg_error("MPI_Gather", "unwritable receive buffer");
    coll.phase = 1;
  }
  while (coll.counter < n - 1) {
    auto msg = match([&](const MsgHeader& h) {
      return h.msg_kind() == MsgKind::kData && h.tag == kTagGather &&
             h.ctrl_arg == epoch;
    });
    if (!msg) return SysResult::kBlock;
    if (msg->header.payload_len != bytes ||
        msg->header.src < 0 || msg->header.src >= n) {
      release(*msg);
      return mpich_fatal("MPI_Gather size/source mismatch");
    }
    if (!deliver(*msg, recvbuf + static_cast<Addr>(msg->header.src) * bytes)) {
      release(*msg);
      return arg_error("MPI_Gather", "unwritable receive buffer");
    }
    release(*msg);
    ++coll.counter;
  }
  return finish_collective(state_.gather_epoch);
}

SysResult Process::do_scatter(Machine& m) {
  const Addr sendbuf = m.arg(0);
  const std::uint32_t bytes = m.arg(1);
  const Addr recvbuf = m.arg(2);
  const int root = static_cast<std::int32_t>(m.arg(3));
  const int n = world_->size();

  if (!state_.initialized || state_.finalized)
    return mpich_fatal("MPI_Scatter outside init/finalize window");
  if (root < 0 || root >= n)
    return arg_error("MPI_Scatter", "invalid root " + std::to_string(root));
  if (bytes > kMaxMessageBytes)
    return arg_error("MPI_Scatter", "invalid count " + std::to_string(bytes));

  m.charge(30 + bytes / 32);
  if (!pump_channel()) return SysResult::kExit;

  const std::uint32_t epoch = state_.scatter_epoch;
  if (rank_ == root) {
    for (int r = 0; r < n; ++r) {
      std::vector<std::byte> block(bytes);
      if (bytes > 0 &&
          !machine_->memory().peek_span(
              sendbuf + static_cast<Addr>(r) * bytes, block))
        return arg_error("MPI_Scatter", "unreadable send buffer");
      if (r == rank_) {
        if (bytes > 0 && !machine_->memory().poke_span(recvbuf, block))
          return arg_error("MPI_Scatter", "unwritable receive buffer");
        continue;
      }
      send_data(r, kTagScatter, state_.send_seq++, block, epoch);
    }
    ++state_.scatter_epoch;
    return done();
  }

  auto msg = match([&](const MsgHeader& h) {
    return h.msg_kind() == MsgKind::kData && h.tag == kTagScatter &&
           h.src == root && h.ctrl_arg == epoch;
  });
  if (!msg) return SysResult::kBlock;
  if (msg->header.payload_len != bytes) {
    release(*msg);
    return mpich_fatal("MPI_Scatter size mismatch");
  }
  if (!deliver(*msg, recvbuf)) {
    release(*msg);
    return arg_error("MPI_Scatter", "unwritable receive buffer");
  }
  release(*msg);
  ++state_.scatter_epoch;
  return done();
}

}  // namespace fsim::simmpi

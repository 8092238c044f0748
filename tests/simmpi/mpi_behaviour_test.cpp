// Byte-level behaviour oracle for the simmpi library.
//
// Each configuration (a paper app under each collective algorithm, or one
// of the unit programs under an eager threshold that selects its protocol)
// is pinned by two recorded numbers:
//  * a golden fingerprint: job status, global instruction count, and per
//    rank the received volume, the channel and ADI traffic stats, plus the
//    console and the output;
//  * a fault-sweep digest: kFaults single-bit message faults at fixed
//    (rank, byte, bit) points below each rank's golden volume, folding each
//    run's status, failed rank, crash trap, instruction count, exit codes
//    and console.
// A change to any header field, sequence number, epoch, packet order,
// charge, console string or choice of error path moves at least one of
// them, so a refactor of the library must leave every value unchanged; a
// deliberate change in behaviour re-records them and says why.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app.hpp"
#include "programs.hpp"
#include "simmpi/stubs.hpp"
#include "simmpi/world.hpp"
#include "svm/assembler.hpp"

namespace fsim::simmpi {
namespace {

namespace programs = testing::programs;

constexpr int kFaults = 32;
constexpr std::uint64_t kGoldenBudget = 50'000'000;

/// FNV-1a over little-endian words and strings.
class Fold {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(std::string_view s) {
    add(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void add(const TrafficStats& s) {
    add(s.control_messages);
    add(s.data_messages);
    add(s.header_bytes);
    add(s.payload_bytes);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Config {
  svm::Program program;
  WorldOptions opts;
};

Config app_config(const std::string& name, CollectiveAlgorithm algo) {
  apps::App app = apps::make_app(name);
  app.world.collectives = algo;
  return {app.link(), app.world};
}

Config unit_config(const char* user_asm, int nranks,
                   std::uint32_t eager_threshold) {
  WorldOptions o;
  o.nranks = nranks;
  o.eager_threshold = eager_threshold;
  return {svm::assemble_units({user_asm, stub_library_asm()}), o};
}

struct Observed {
  std::uint64_t golden = 0;
  std::uint64_t sweep = 0;
};

Observed observe(const Config& c) {
  World golden(c.program, c.opts);
  EXPECT_EQ(golden.run(kGoldenBudget), JobStatus::kCompleted)
      << golden.console();
  Fold g;
  g.add(static_cast<std::uint64_t>(golden.status()));
  g.add(golden.global_instructions());
  std::vector<std::uint64_t> volume;
  for (int r = 0; r < golden.size(); ++r) {
    const Process& p = golden.process(r);
    volume.push_back(p.channel().received_bytes());
    g.add(volume.back());
    g.add(p.channel().stats());
    g.add(p.adi_stats());
  }
  g.add(golden.console());
  g.add(golden.output());

  std::vector<int> receivers;
  for (int r = 0; r < golden.size(); ++r)
    if (volume[static_cast<std::size_t>(r)] > 0) receivers.push_back(r);
  EXPECT_FALSE(receivers.empty());
  const std::uint64_t budget = 3 * golden.global_instructions() + 200'000;

  Fold s;
  std::uint64_t rng = 0x4d5049;
  for (int i = 0; i < kFaults && !receivers.empty(); ++i) {
    const int rank = receivers[splitmix(rng) % receivers.size()];
    const std::uint64_t byte =
        splitmix(rng) % volume[static_cast<std::size_t>(rank)];
    const unsigned bit = static_cast<unsigned>(splitmix(rng) % 8);
    World w(c.program, c.opts);
    w.process(rank).channel().arm_fault(byte, bit);
    w.run(budget);
    s.add(static_cast<std::uint64_t>(w.status()));
    s.add(static_cast<std::uint64_t>(w.failed_rank()));
    s.add(static_cast<std::uint64_t>(w.crash_trap()));
    s.add(w.global_instructions());
    for (int r = 0; r < w.size(); ++r)
      s.add(static_cast<std::uint64_t>(w.machine(r).exit_code()));
    s.add(w.console());
  }
  return {g.value(), s.value()};
}

void expect_observed(const Config& c, std::uint64_t golden,
                     std::uint64_t sweep) {
  const Observed o = observe(c);
  EXPECT_EQ(o.golden, golden);
  EXPECT_EQ(o.sweep, sweep);
}

constexpr auto kFlat = CollectiveAlgorithm::kFlat;
constexpr auto kTree = CollectiveAlgorithm::kBinomialTree;

TEST(MpiBehaviour, WavetoyFlat) {
  expect_observed(app_config("wavetoy", kFlat), 4870536914975226078u,
                  18107589687617869349u);
}
TEST(MpiBehaviour, WavetoyTree) {
  expect_observed(app_config("wavetoy", kTree), 4870536914975226078u,
                  18107589687617869349u);
}
TEST(MpiBehaviour, MinimdFlat) {
  expect_observed(app_config("minimd", kFlat), 14739770539118405866u,
                  4547815902576760978u);
}
TEST(MpiBehaviour, MinimdTree) {
  expect_observed(app_config("minimd", kTree), 1317216329966046092u,
                  3433418506936453997u);
}
TEST(MpiBehaviour, AtmoFlat) {
  expect_observed(app_config("atmo", kFlat), 14420543094404716464u,
                  16282272417492103955u);
}
TEST(MpiBehaviour, AtmoTree) {
  expect_observed(app_config("atmo", kTree), 12681417577127102495u,
                  13322458869495417266u);
}
TEST(MpiBehaviour, JacobiFlat) {
  expect_observed(app_config("jacobi", kFlat), 2179000348082822158u,
                  15434400535240892355u);
}
TEST(MpiBehaviour, JacobiTree) {
  expect_observed(app_config("jacobi", kTree), 7861097642734693908u,
                  10352175237481217525u);
}

// Unit programs. An eager threshold of 0 sends every non-empty message by
// rendezvous, which drives the RTS/CTS steps of the request engine
// (posted receives and Sendrecv) as well as of the blocking calls.
TEST(MpiBehaviour, RendezvousSend) {
  expect_observed(unit_config(programs::kRendezvousSend, 2, 4096),
                  4817062140499255137u, 17859347718023868474u);
}
TEST(MpiBehaviour, RendezvousIsend) {
  expect_observed(unit_config(programs::kRendezvousIsend, 2, 64),
                  3706395553971058520u, 16549190140911454711u);
}
TEST(MpiBehaviour, SendrecvEager) {
  expect_observed(unit_config(programs::kSendrecvRing, 4, 4096),
                  17056097256900521116u, 13570234473859635175u);
}
TEST(MpiBehaviour, SendrecvRendezvous) {
  expect_observed(unit_config(programs::kSendrecvRing, 4, 0),
                  16405733257714470680u, 1107675353522584215u);
}
TEST(MpiBehaviour, ProbeEager) {
  expect_observed(unit_config(programs::kProbe, 2, 4096),
                  11245837665864394833u, 13711035023726326982u);
}
TEST(MpiBehaviour, ProbeRendezvous) {
  expect_observed(unit_config(programs::kProbe, 2, 0),
                  13222842514803132339u, 7402921880413413875u);
}
TEST(MpiBehaviour, TestEager) {
  expect_observed(unit_config(programs::kTestPoll, 2, 4096),
                  5243623533834020003u, 9739979817020319478u);
}
TEST(MpiBehaviour, TestRendezvous) {
  expect_observed(unit_config(programs::kTestPoll, 2, 0),
                  10713258274270087062u, 18000648407431716494u);
}
TEST(MpiBehaviour, Scatter) {
  expect_observed(unit_config(programs::kScatter, 5, 4096),
                  18029437223923317536u, 531897955741747064u);
}
TEST(MpiBehaviour, ScatterGather) {
  expect_observed(unit_config(programs::kScatterGather, 3, 4096),
                  15312862742628833223u, 2360875111276189864u);
}

// Argument errors (paper §6.2): every rank makes one call with one bad
// argument, with and without a registered error handler, and once more
// after MPI_Finalize (outside the init/finalize window). Folds each job's
// status, failed rank, exit codes and console, so every error string and
// every choice between the handler and an MPICH abort is pinned.
struct BadCall {
  const char* call;
  const char* args;  // loads r1..r4
};

constexpr BadCall kBadCalls[] = {
    {"MPI_Send", "la r1, buf\nldi r2, 4\nldi r3, 9\nldi r4, 5"},
    {"MPI_Send", "la r1, buf\nli r2, 2097152\nldi r3, 1\nldi r4, 5"},
    {"MPI_Send", "la r1, buf\nldi r2, 4\nldi r3, 1\nldi r4, -1"},
    {"MPI_Send", "ldi r1, 0\nldi r2, 4\nldi r3, 1\nldi r4, 5"},
    {"MPI_Isend", "la r1, buf\nldi r2, 4\nldi r3, -3\nldi r4, 5"},
    {"MPI_Isend", "la r1, buf\nli r2, 2097152\nldi r3, 1\nldi r4, 5"},
    {"MPI_Isend", "la r1, buf\nldi r2, 4\nldi r3, 1\nldi r4, -1"},
    {"MPI_Isend", "ldi r1, 0\nldi r2, 4\nldi r3, 1\nldi r4, 5"},
    {"MPI_Recv", "la r1, buf\nldi r2, 4\nldi r3, 9\nldi r4, 5"},
    {"MPI_Recv", "la r1, buf\nli r2, 2097152\nldi r3, 1\nldi r4, 5"},
    {"MPI_Recv", "la r1, buf\nldi r2, 4\nldi r3, 1\nldi r4, -1"},
    {"MPI_Recv", "ldi r1, 0\nldi r2, 4\nldi r3, 1\nldi r4, 5"},
    {"MPI_Irecv", "la r1, buf\nldi r2, 4\nldi r3, -2\nldi r4, 5"},
    {"MPI_Irecv", "la r1, buf\nli r2, 2097152\nldi r3, 1\nldi r4, 5"},
    {"MPI_Irecv", "la r1, buf\nldi r2, 4\nldi r3, 1\nldi r4, -1"},
    {"MPI_Irecv", "ldi r1, 0\nldi r2, 4\nldi r3, 1\nldi r4, 5"},
    {"MPI_Wait", "ldi r1, 7"},
    {"MPI_Test", "ldi r1, 0"},
    {"MPI_Probe", "ldi r1, 9\nldi r2, 5"},
    {"MPI_Probe", "ldi r1, 1\nldi r2, -1"},
    {"MPI_Sendrecv", "ldi r1, 0"},
    {"MPI_Barrier", ""},  // wrong only after MPI_Finalize
    {"MPI_Bcast", "la r1, buf\nldi r2, 4\nldi r3, 9"},
    {"MPI_Bcast", "la r1, buf\nli r2, 2097152\nldi r3, 0"},
    {"MPI_Bcast", "ldi r1, 0\nldi r2, 4\nldi r3, 0"},
    {"MPI_Reduce_sum", "la r1, buf\nla r2, buf\nldi r3, 1\nldi r4, 9"},
    {"MPI_Reduce_sum", "ldi r1, 0\nla r2, buf\nldi r3, 1\nldi r4, 0"},
    {"MPI_Allreduce_sum", "la r1, buf\nla r2, buf\nli r3, 2097152"},
    {"MPI_Allreduce_sum", "la r1, buf\nldi r2, 0\nldi r3, 1"},
    {"MPI_Gather", "la r1, buf\nldi r2, 4\nla r3, buf\nldi r4, 9"},
    {"MPI_Gather", "la r1, buf\nli r2, 2097152\nla r3, buf\nldi r4, 0"},
    {"MPI_Gather", "ldi r1, 0\nldi r2, 4\nla r3, buf\nldi r4, 0"},
    {"MPI_Scatter", "la r1, buf\nldi r2, 4\nla r3, buf\nldi r4, 9"},
    {"MPI_Scatter", "la r1, buf\nli r2, 2097152\nla r3, buf\nldi r4, 0"},
    {"MPI_Scatter", "ldi r1, 0\nldi r2, 4\nla r3, buf\nldi r4, 0"},
};

std::string bad_call_program(const BadCall& c, bool handler,
                             bool after_finalize) {
  std::string s = ".text\nmain:\n    enter 16\n    call MPI_Init\n";
  s += handler ? "    ldi r1, 1\n" : "    ldi r1, 0\n";
  s += "    call MPI_Errhandler_set\n";
  if (after_finalize) s += "    call MPI_Finalize\n";
  s += std::string(c.args) + "\n    call " + c.call + "\n";
  if (!after_finalize) s += "    call MPI_Finalize\n";
  s += "    ldi r1, 0\n    leave\n    ret\n.bss\nbuf: .space 64\n";
  return s;
}

TEST(MpiBehaviour, ArgumentErrors) {
  WorldOptions o;
  o.nranks = 2;
  Fold f;
  for (const BadCall& c : kBadCalls) {
    for (int variant = 0; variant < 3; ++variant) {
      const std::string user =
          bad_call_program(c, /*handler=*/variant == 1, variant == 2);
      const svm::Program program =
          svm::assemble_units({user, stub_library_asm()});
      World w(program, o);
      w.run(kGoldenBudget);
      f.add(static_cast<std::uint64_t>(w.status()));
      f.add(static_cast<std::uint64_t>(w.failed_rank()));
      for (int r = 0; r < w.size(); ++r)
        f.add(static_cast<std::uint64_t>(w.machine(r).exit_code()));
      f.add(w.console());
    }
  }
  EXPECT_EQ(f.value(), 5277762605833453696u);
}

}  // namespace
}  // namespace fsim::simmpi

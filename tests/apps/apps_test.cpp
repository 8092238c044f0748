// Fault-free behaviour of the three benchmark applications.
#include "apps/app.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::apps {
namespace {

using simmpi::JobStatus;
using simmpi::World;

struct Sim {
  svm::Program program;
  World world;
  explicit Sim(const App& app, std::uint64_t seed = 1)
      : program(app.link()), world(program, patched(app, seed)) {}
  static simmpi::WorldOptions patched(const App& app, std::uint64_t seed) {
    simmpi::WorldOptions o = app.world;
    o.seed = seed;
    return o;
  }
  JobStatus go(std::uint64_t budget = 200'000'000) {
    return world.run(budget);
  }
};

TEST(Wavetoy, CompletesAndWritesOutput) {
  App app = make_wavetoy();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  const std::string& out = run.world.output();
  EXPECT_NE(out.find("WAVETOY OUTPUT"), std::string::npos);
  // One value per line for every interior cell of every rank.
  const WavetoyConfig cfg;
  const std::size_t expected =
      static_cast<std::size_t>(cfg.ranks) * cfg.columns * cfg.rows;
  std::size_t lines = 0;
  for (char c : out)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, expected + 1);  // + banner line
  EXPECT_TRUE(run.world.console().empty()) << run.world.console();
}

TEST(Wavetoy, OutputIsDeterministic) {
  App app = make_wavetoy();
  Sim a(app), b(app);
  a.go();
  b.go();
  EXPECT_EQ(a.world.output(), b.world.output());
  EXPECT_EQ(a.world.global_instructions(), b.world.global_instructions());
}

TEST(Wavetoy, FieldValuesAreNearZero) {
  // §6.2: "most transferred data are very close to zero".
  App app = make_wavetoy();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  std::istringstream in(run.world.output());
  std::string line;
  std::getline(in, line);  // banner
  int total = 0, tiny = 0;
  while (std::getline(in, line)) {
    const double v = std::strtod(line.c_str(), nullptr);
    ++total;
    EXPECT_LT(std::fabs(v), 1.0);
    if (std::fabs(v) < 1e-3) ++tiny;
  }
  EXPECT_GT(total, 0);
  EXPECT_GT(static_cast<double>(tiny) / total, 0.5);
}

TEST(Wavetoy, WaveActuallyPropagates) {
  // The field must evolve: outputs after different step counts differ.
  WavetoyConfig c1;
  c1.steps = 2;
  WavetoyConfig c2;
  c2.steps = 20;
  Sim a(make_wavetoy(c1)), b(make_wavetoy(c2));
  ASSERT_EQ(a.go(), JobStatus::kCompleted);
  ASSERT_EQ(b.go(), JobStatus::kCompleted);
  EXPECT_NE(a.world.output(), b.world.output());
}

TEST(Wavetoy, BinaryOutputVariantRuns) {
  WavetoyConfig cfg;
  cfg.binary_output = true;
  Sim run(make_wavetoy(cfg));
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  // Hex dumps: 16 hex chars per value line.
  std::istringstream in(run.world.output());
  std::string line;
  std::getline(in, line);
  std::getline(in, line);
  EXPECT_EQ(line.size(), 16u);
}

TEST(Wavetoy, LowRegisterPressureVariantMatchesOutput) {
  WavetoyConfig hi;
  WavetoyConfig lo;
  lo.high_register_pressure = false;
  Sim a(make_wavetoy(hi)), b(make_wavetoy(lo));
  ASSERT_EQ(a.go(), JobStatus::kCompleted);
  ASSERT_EQ(b.go(), JobStatus::kCompleted);
  EXPECT_EQ(a.world.output(), b.world.output());
  // The spilled variant executes more instructions (it is "unoptimised").
  EXPECT_GT(b.world.global_instructions(), a.world.global_instructions());
}

TEST(Wavetoy, LinksAndRunsWithFewColdFunctions) {
  // The value-range gate's dead arm calls cold helpers; images with fewer
  // than two of them must still link, and cold code never changes output.
  Sim ref(make_wavetoy());
  ASSERT_EQ(ref.go(), JobStatus::kCompleted);
  for (int n : {0, 1}) {
    WavetoyConfig cfg;
    cfg.cold_functions = n;
    Sim run(make_wavetoy(cfg));
    ASSERT_EQ(run.go(), JobStatus::kCompleted) << n;
    EXPECT_EQ(run.world.output(), ref.world.output()) << n;
  }
}

TEST(Wavetoy, TrafficIsPayloadDominated) {
  // Cactus profile (Table 1): ~94% of received bytes are user data.
  App app = make_wavetoy();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  std::uint64_t header = 0, payload = 0;
  for (int r = 0; r < app.world.nranks; ++r) {
    header += run.world.process(r).channel().stats().header_bytes;
    payload += run.world.process(r).channel().stats().payload_bytes;
  }
  const double user_frac =
      static_cast<double>(payload) / static_cast<double>(header + payload);
  EXPECT_GT(user_frac, 0.85);
  EXPECT_LT(user_frac, 0.99);
}

TEST(Minimd, CompletesAndPrintsEnergies) {
  App app = make_minimd();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  const std::string console = run.world.console();
  const MinimdConfig cfg;
  for (int s = 0; s < cfg.steps; ++s) {
    EXPECT_NE(console.find("STEP " + std::to_string(s) + " E="),
              std::string::npos)
        << console;
  }
}

TEST(Minimd, ConsoleEnergiesStableAcrossSeeds) {
  // §4.2.2: nondeterministic arrival order, but the console output "has no
  // noticeable deviation" for short runs.
  App app = make_minimd();
  Sim a(app, 1), b(app, 42), c(app, 1234);
  ASSERT_EQ(a.go(), JobStatus::kCompleted);
  ASSERT_EQ(b.go(), JobStatus::kCompleted);
  ASSERT_EQ(c.go(), JobStatus::kCompleted);
  EXPECT_EQ(a.world.console(), b.world.console());
  EXPECT_EQ(a.world.console(), c.world.console());
}

TEST(Minimd, ExecutionIsNondeterministicInDetail) {
  // Different seeds interleave differently (the instruction totals differ),
  // even though the low-precision console is stable.
  App app = make_minimd();
  Sim a(app, 1), b(app, 42);
  a.go();
  b.go();
  EXPECT_NE(a.world.global_instructions(), b.world.global_instructions());
}

TEST(Minimd, ChecksumVariantCostsMoreTime) {
  MinimdConfig with;
  MinimdConfig without;
  without.checksums = false;
  without.jitter = with.jitter = 0;  // compare like with like
  Sim a(make_minimd(with)), b(make_minimd(without));
  ASSERT_EQ(a.go(), JobStatus::kCompleted);
  ASSERT_EQ(b.go(), JobStatus::kCompleted);
  EXPECT_GT(a.world.global_instructions(), b.world.global_instructions());
  // NAMD measures ~3% overhead; ours must stay modest (< 15%).
  const double ratio =
      static_cast<double>(a.world.global_instructions()) /
      static_cast<double>(b.world.global_instructions());
  EXPECT_LT(ratio, 1.15);
}

TEST(Minimd, ChecksumDetectsPayloadCorruption) {
  App app = make_minimd();
  Sim run(app);
  // Corrupt a payload byte of the first position block rank 0 receives.
  // Offset 48+16 lands in user data (atom 1's x coordinate).
  run.world.process(0).channel().arm_fault(48 + 16, 6);
  const JobStatus st = run.go();
  EXPECT_EQ(st, JobStatus::kAppAborted);
  EXPECT_NE(run.world.console().find("message checksum mismatch"),
            std::string::npos);
}

TEST(Minimd, WithoutChecksumsCorruptionIsSilentOrIncorrect) {
  MinimdConfig cfg;
  cfg.checksums = false;
  cfg.jitter = 0;
  App app = make_minimd(cfg);
  Sim run(app);
  run.world.process(0).channel().arm_fault(48 + 16, 6);
  const JobStatus st = run.go();
  // No checksum: the corruption is not App Detected (it may alter the
  // energies, crash via NaN checks later, or vanish).
  EXPECT_NE(run.world.console().find("STEP"), std::string::npos);
  EXPECT_TRUE(st == JobStatus::kCompleted || st == JobStatus::kAppAborted);
  if (st == JobStatus::kAppAborted) {
    EXPECT_EQ(run.world.console().find("message checksum mismatch"),
              std::string::npos);
  }
}

TEST(Atmo, CompletesAndWritesOutput) {
  App app = make_atmo();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  EXPECT_NE(run.world.output().find("ATMO OUTPUT"), std::string::npos);
  const AtmoConfig cfg;
  std::size_t lines = 0;
  for (char c : run.world.output())
    if (c == '\n') ++lines;
  // banner + 4 history lines + one line per gathered column
  EXPECT_EQ(lines, static_cast<std::size_t>(cfg.ranks) * cfg.columns + 5);
}

TEST(Atmo, MoistureStaysPositive) {
  App app = make_atmo();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  std::istringstream in(run.world.output());
  std::string line;
  std::getline(in, line);                              // banner
  for (int i = 0; i < 4; ++i) std::getline(in, line);  // history sums
  while (std::getline(in, line)) {
    const double q = std::strtod(line.c_str(), nullptr);
    EXPECT_GT(q, 0.0);
    EXPECT_LT(q, 1.0);
  }
}

TEST(Atmo, TrafficIsControlDominated) {
  // CAM profile (Table 1): 63% of received bytes are headers.
  App app = make_atmo();
  Sim run(app);
  ASSERT_EQ(run.go(), JobStatus::kCompleted);
  std::uint64_t header = 0, payload = 0, ctrl = 0, data = 0;
  for (int r = 0; r < app.world.nranks; ++r) {
    const auto& s = run.world.process(r).channel().stats();
    header += s.header_bytes;
    payload += s.payload_bytes;
    ctrl += s.control_messages;
    data += s.data_messages;
  }
  const double header_frac =
      static_cast<double>(header) / static_cast<double>(header + payload);
  EXPECT_GT(header_frac, 0.45);
  EXPECT_LT(header_frac, 0.85);
  EXPECT_GT(ctrl, 0u);  // barriers produced pure control messages
}

TEST(Atmo, DeterministicOutput) {
  App app = make_atmo();
  Sim a(app), b(app);
  a.go();
  b.go();
  EXPECT_EQ(a.world.output(), b.world.output());
}

TEST(Atmo, MoistureCheckCatchesInjectedNaN) {
  App app = make_atmo();
  Sim run(app);
  // Run a little, then poison one moisture value with NaN (as an FP-register
  // or memory fault might) and verify the physics check fires.
  for (int i = 0; i < 50; ++i) run.world.advance();
  ASSERT_EQ(run.world.status(), JobStatus::kRunning);
  const svm::Symbol* q = run.program.find_symbol("q");
  ASSERT_NE(q, nullptr);
  const std::uint64_t nan_bits = 0x7ff8000000000000ull;
  ASSERT_TRUE(run.world.machine(2).memory().poke64(q->address, nan_bits));
  const JobStatus st = run.go();
  EXPECT_EQ(st, JobStatus::kAppAborted);
  EXPECT_NE(run.world.console().find("NaN in moisture"), std::string::npos);
}

TEST(Atmo, MoistureCheckCatchesNegativeMoisture) {
  App app = make_atmo();
  Sim run(app);
  for (int i = 0; i < 50; ++i) run.world.advance();
  ASSERT_EQ(run.world.status(), JobStatus::kRunning);
  const svm::Symbol* q = run.program.find_symbol("q");
  ASSERT_NE(q, nullptr);
  const double neg = -5.0;
  ASSERT_TRUE(run.world.machine(1).memory().poke64(
      q->address + 8, std::bit_cast<std::uint64_t>(neg)));
  const JobStatus st = run.go();
  EXPECT_EQ(st, JobStatus::kAppAborted);
  EXPECT_NE(run.world.console().find("moisture below minimum"),
            std::string::npos);
}

TEST(Atmo, WithoutChecksNaNReachesOutput) {
  AtmoConfig cfg;
  cfg.moisture_check = false;
  App app = make_atmo(cfg);
  Sim run(app);
  for (int i = 0; i < 50; ++i) run.world.advance();
  ASSERT_EQ(run.world.status(), JobStatus::kRunning);
  const svm::Symbol* q = run.program.find_symbol("q");
  ASSERT_NE(q, nullptr);
  const std::uint64_t nan_bits = 0x7ff8000000000000ull;
  ASSERT_TRUE(run.world.machine(0).memory().poke64(q->address, nan_bits));
  const JobStatus st = run.go();
  ASSERT_EQ(st, JobStatus::kCompleted);  // silent corruption
  EXPECT_NE(run.world.output().find("nan"), std::string::npos);
}

TEST(Registry, MakeAppByName) {
  for (const std::string& name : app_names()) {
    App app = make_app(name);
    EXPECT_EQ(app.name, name);
    EXPECT_FALSE(app.user_asm.empty());
    EXPECT_NO_THROW(app.link());
  }
  EXPECT_THROW(make_app("nosuch"), util::SetupError);
}

TEST(Registry, AppsHaveDistinctBaselines) {
  EXPECT_EQ(make_app("wavetoy").baseline, BaselineStream::kOutputFile);
  EXPECT_EQ(make_app("minimd").baseline, BaselineStream::kConsole);
  EXPECT_EQ(make_app("atmo").baseline, BaselineStream::kOutputFile);
}

}  // namespace
}  // namespace fsim::apps

// Golden-prefix fast-forward: an injected run that starts from a golden
// snapshot must be indistinguishable from one that replays the prefix.
//
//  * the replay oracle is the same run_injected given a Golden whose only
//    snapshot is t=0, so both sides take the one restore path and differ
//    only in how much of the prefix they re-simulate;
//  * a World reused across runs (text flips, crashes, hangs, heap faults)
//    must give the outcomes of a fresh World per run;
//  * every write path must widen Memory's written extent, under both
//    engines, because sparse snapshots copy and zero nothing else.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/dictionary.hpp"
#include "core/run.hpp"
#include "simmpi/snapshot.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/assembler.hpp"
#include "svm/machine.hpp"

namespace fsim::core {
namespace {

/// The whole outcome, field by field, so a mismatch names what moved.
void expect_same(const RunOutcome& a, const RunOutcome& b,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.manifestation, b.manifestation);
  EXPECT_EQ(a.fault_description, b.fault_description);
  EXPECT_EQ(a.failure_detail, b.failure_detail);
  EXPECT_EQ(a.injected_at, b.injected_at);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.fault_applied, b.fault_applied);
  EXPECT_EQ(a.crash_kind, b.crash_kind);
  EXPECT_EQ(a.activation, b.activation);
  EXPECT_EQ(a.pruned, b.pruned);
  EXPECT_EQ(a.prune_rung, b.prune_rung);
  EXPECT_EQ(a.msg_fired, b.msg_fired);
  EXPECT_EQ(a.msg_hit_header, b.msg_hit_header);
  EXPECT_EQ(a.msg_offset_in_packet, b.msg_offset_in_packet);
}

/// What a campaign prepares for one app: the image, the golden run, the
/// static-region dictionaries and the analysis behind tagging and pruning.
struct Prepared {
  apps::App app;
  svm::Program program;
  std::unique_ptr<svm::analysis::ProgramAnalysis> analysis;
  std::array<std::unique_ptr<FaultDictionary>, kNumRegions> dicts;
  Golden golden;
  RunContext ctx;

  explicit Prepared(apps::App a) : app(std::move(a)), program(app.link()) {
    analysis = std::make_unique<svm::analysis::ProgramAnalysis>(program);
    util::Rng rng(0xd1c7);
    for (Region r : {Region::kText, Region::kData, Region::kBss})
      dicts[static_cast<unsigned>(r)] =
          std::make_unique<FaultDictionary>(program, r, rng, 1024);
    golden = run_golden(app, program);
    ctx.analysis = analysis.get();
    ctx.prune = PruneLevel::kFull;
  }

  const FaultDictionary* dict(Region r) const {
    return dicts[static_cast<unsigned>(r)].get();
  }

  /// The replay oracle: this Golden with only its t=0 snapshot, taken
  /// from a freshly built run World (world seed 1, as the golden run's).
  Golden t0_golden() const {
    Golden g = golden;
    auto world = make_run_world(app, program, ctx);
    auto only = std::make_shared<std::vector<simmpi::Snapshot>>();
    only->push_back(simmpi::Snapshot::capture(*world));
    g.snapshots = std::move(only);
    return g;
  }
};

class FastForwardApps : public ::testing::TestWithParam<const char*> {};

TEST_P(FastForwardApps, SnapshotsMatchTheReplayOracle) {
  const Prepared p(apps::make_app(GetParam()));
  const auto& snaps = *p.golden.snapshots;
  // Snapshots must exist beyond t=0, ascend, and all lie in the run.
  ASSERT_GE(snaps.size(), 8u);
  ASSERT_LE(snaps.size(), 32u);
  EXPECT_EQ(snaps.front().instructions(), 0u);
  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_LT(snaps[i - 1].instructions(), snaps[i].instructions());
  EXPECT_LT(snaps.back().instructions(), p.golden.instructions);

  const Golden oracle = p.t0_golden();
  int simulated = 0;
  for (unsigned r = 0; r < kNumRegions; ++r) {
    const Region region = static_cast<Region>(r);
    for (std::uint64_t seed = 0; seed < 25; ++seed) {
      const RunOutcome fast = run_injected(p.app, p.program, p.golden, region,
                                           p.dict(region), seed, p.ctx);
      const RunOutcome slow = run_injected(p.app, p.program, oracle, region,
                                           p.dict(region), seed, p.ctx);
      expect_same(fast, slow, std::string(region_name(region)) + " seed " +
                                  std::to_string(seed));
      if (!fast.pruned) ++simulated;
    }
  }
  EXPECT_GT(simulated, 50);  // not only pruned runs were compared
}

INSTANTIATE_TEST_SUITE_P(AllApps, FastForwardApps,
                         ::testing::Values("wavetoy", "minimd", "atmo"));

/// The runs of `plan` (region, seed pairs), each on a fresh World and then
/// all on one reused World, must agree run for run.
class FastForwardEngines
    : public ::testing::TestWithParam<svm::exec::EngineKind> {};

TEST_P(FastForwardEngines, ReusedWorldMatchesFreshWorlds) {
  Prepared p(apps::make_app("minimd"));
  p.ctx.engine = GetParam();
  p.ctx.prune = PruneLevel::kOff;  // every run is simulated

  // Pick, on fresh Worlds, a text flip that resumes, a crash, a hang and a
  // heap fault; put an ordinary register run after each, where anything a
  // reused World carried over would show.
  struct Step {
    Region region;
    std::uint64_t seed;
  };
  std::vector<Step> plan;
  std::vector<RunOutcome> fresh;
  auto add = [&](Region region, std::uint64_t seed, const RunOutcome& out) {
    plan.push_back({region, seed});
    fresh.push_back(out);
    const std::uint64_t tail = 1000 + plan.size();
    plan.push_back({Region::kRegularReg, tail});
    fresh.push_back(run_injected(p.app, p.program, p.golden,
                                 Region::kRegularReg, nullptr, tail, p.ctx));
  };
  auto find = [&](Region region, auto wanted) {
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
      const RunOutcome out = run_injected(p.app, p.program, p.golden, region,
                                          p.dict(region), seed, p.ctx);
      if (wanted(out)) {
        add(region, seed, out);
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(find(Region::kText, [](const RunOutcome& o) {
    return o.fault_applied && o.manifestation != Manifestation::kCorrect;
  }));
  ASSERT_TRUE(find(Region::kRegularReg, [](const RunOutcome& o) {
    return o.manifestation == Manifestation::kCrash;
  }));
  ASSERT_TRUE(find(Region::kMessage, [](const RunOutcome& o) {
    return o.manifestation == Manifestation::kHang;
  }));
  ASSERT_TRUE(find(Region::kHeap, [](const RunOutcome& o) {
    return o.fault_applied;
  }));

  const auto world = make_run_world(p.app, p.program, p.ctx);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const RunOutcome reused =
        run_injected(p.app, p.program, p.golden, plan[i].region,
                     p.dict(plan[i].region), plan[i].seed, p.ctx, world.get());
    expect_same(reused, fresh[i],
                std::string(region_name(plan[i].region)) + " seed " +
                    std::to_string(plan[i].seed));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, FastForwardEngines,
    ::testing::Values(svm::exec::EngineKind::kInterp,
                      svm::exec::EngineKind::kThreaded),
    [](const ::testing::TestParamInfo<svm::exec::EngineKind>& info) {
      return std::string(svm::exec::engine_name(info.param));
    });

// --- Written extents ---

using svm::Segment;
using svm::WrittenExtent;

void expect_extent(const WrittenExtent& w, std::uint32_t lo,
                   std::uint32_t hi) {
  EXPECT_EQ(w.lo, lo);
  EXPECT_EQ(w.hi, hi);
}

TEST_P(FastForwardEngines, StoresWidenTheWrittenExtent) {
  const svm::Program program = svm::assemble(R"(
.text
main:
    stw [r2+12], r1
    stb [r2+33], r1
    fst [r2+40]
    stw [r3+100], r1
    push r1
    nop
    ret
.data
w:  .word 7, 8
.bss
buf: .space 64
)");
  svm::Machine::Config config;
  config.engine = GetParam();
  svm::Machine m(program, config);
  const svm::Memory& mem = m.memory();
  const std::uint32_t text = program.segment_size(Segment::kText);
  const std::uint32_t stack = mem.extent(Segment::kStack).size;

  // The loader's images and crt0's exit sentinel; nothing else yet.
  expect_extent(mem.written(Segment::kText), 0, text);
  expect_extent(mem.written(Segment::kData), 0, 8);
  expect_extent(mem.written(Segment::kStack), stack - 4, stack);
  EXPECT_TRUE(mem.written(Segment::kBss).empty());
  EXPECT_TRUE(mem.written(Segment::kHeap).empty());

  m.regs().gpr[2] = program.find_symbol("buf")->address;
  m.regs().gpr[3] = mem.extent(Segment::kHeap).base;
  m.regs().fpu.push(1.5);
  ASSERT_EQ(m.step(5), 5u);
  expect_extent(mem.written(Segment::kBss), 12, 48);      // stw, stb, fst
  expect_extent(mem.written(Segment::kHeap), 100, 104);   // stw
  expect_extent(mem.written(Segment::kStack), stack - 8, stack);  // push
  expect_extent(mem.written(Segment::kText), 0, text);    // unchanged
  // The same stores flag their blocks as changed since the last capture.
  svm::Memory& w = m.memory();
  EXPECT_EQ(w.write_track(Segment::kBss).changed[0], 1);
  EXPECT_EQ(w.write_track(Segment::kHeap).changed[0], 1);
  EXPECT_EQ(w.write_track(Segment::kHeap).changed[1], 0);
  EXPECT_EQ(w.write_track(Segment::kStack).changed[stack / 1024 - 1], 1);
  EXPECT_EQ(w.write_track(Segment::kStack).changed[0], 0);
}

TEST(FastForward, PrivilegedWritesWidenTheWrittenExtent) {
  const svm::Program program = svm::assemble(".text\nmain: ret\n");
  svm::Machine m(program, svm::Machine::Config{});
  svm::Memory& mem = m.memory();
  const svm::Addr heap = mem.extent(Segment::kHeap).base;
  const WrittenExtent& w = mem.written(Segment::kHeap);

  ASSERT_TRUE(mem.poke32(heap + 200, 1));
  expect_extent(w, 200, 204);
  ASSERT_TRUE(mem.poke8(heap + 199, 1));
  expect_extent(w, 199, 204);
  ASSERT_TRUE(mem.poke64(heap + 300, 1));
  expect_extent(w, 199, 308);
  const std::array<std::byte, 16> span{};
  ASSERT_TRUE(mem.poke_span(heap + 400, span));
  expect_extent(w, 199, 416);
  ASSERT_TRUE(mem.flip_bit(heap + 50, 3));
  expect_extent(w, 50, 416);
  // Failed writes widen nothing.
  EXPECT_FALSE(mem.poke32(mem.extent(Segment::kHeap).end(), 1));
  expect_extent(w, 50, 416);
}

TEST(FastForward, PokePastTheHeapPeakIsZeroAfterRestore) {
  const apps::App app = apps::make_app("wavetoy");
  const svm::Program program = app.link();
  simmpi::World world(program, app.world);
  for (int i = 0; i < 200; ++i) world.advance();
  ASSERT_EQ(world.status(), simmpi::JobStatus::kRunning);
  const simmpi::Snapshot snap = simmpi::Snapshot::capture(world);
  svm::Memory& mem = world.machine(1).memory();
  const WrittenExtent before = mem.written(Segment::kHeap);
  const std::uint32_t peak = world.process(1).heap().peak_usage();

  // Far beyond anything the heap ever handed out.
  const svm::SegmentExtent& heap = mem.extent(Segment::kHeap);
  const svm::Addr far = heap.end() - 8;
  ASSERT_GT(far - heap.base, peak + 8);
  ASSERT_TRUE(mem.poke64(far, ~0ull));
  EXPECT_EQ(mem.written(Segment::kHeap).hi, heap.size);

  snap.restore(world);
  std::uint64_t v = 1;
  ASSERT_TRUE(mem.peek64(far, v));
  EXPECT_EQ(v, 0u);
  expect_extent(mem.written(Segment::kHeap), before.lo, before.hi);
}

}  // namespace
}  // namespace fsim::core

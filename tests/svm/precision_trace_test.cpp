// Machine-trace validation of the precision-ladder claims the injector
// prunes on (analysis.hpp): on a fault-free run of each paper app,
//   - a physical FP slot the depth analysis calls empty must hold a kEmpty
//     tag at every scheduler pause,
//   - a data/BSS byte claimed dead-from-here (time-windowed liveness) must
//     never be read by that rank later in the run,
//   - the value-range-refined reachable set must cover every user-text pc
//     the machine actually fetches,
//   - a heap chunk whose allocation site the interprocedural scan calls
//     write-only must never have a payload byte read at any point,
//   - a stack-frame slot the activation-window rung calls dead for its
//     owning activation must be rewritten before it is next read.
// Each check also asserts the rung had bite; the time-window and
// value-range checks assert bite beyond their base proof, so a regression
// to the coarser answer fails loudly.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "apps/app.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/heap.hpp"
#include "svm/machine.hpp"
#include "svm/stackwalk.hpp"

namespace fsim::svm::analysis {
namespace {

/// Records every user-text fetch and every data/BSS/heap load of one rank,
/// stamped with the machine's instruction count. Also carries the set of
/// "dead from here" byte claims (stack slots, windowed heap bytes) made at
/// scheduler pauses: a claimed byte read before it is next written means
/// the injector would have pruned an observable flip — a soundness hole.
struct TraceProbe : public AccessObserver {
  const Machine* machine = nullptr;
  std::set<Addr> fetched;
  std::map<Addr, std::uint64_t> last_load;  // byte addr -> latest read time
  std::map<Addr, std::uint64_t> pending;    // claimed-dead byte -> claim time

  struct Violation {
    Addr addr = 0;
    std::uint64_t claim_time = 0;
    std::uint64_t load_time = 0;
  };
  std::vector<Violation> violations;

  void claim(Addr addr) { pending.try_emplace(addr, machine->instructions()); }

  void on_fetch(Addr addr) override { fetched.insert(addr); }
  void on_load(Addr addr, unsigned size, Segment seg) override {
    const bool record = seg == Segment::kData || seg == Segment::kBss ||
                        seg == Segment::kHeap;
    for (unsigned i = 0; i < size; ++i) {
      if (record) last_load[addr + i] = machine->instructions();
      if (pending.empty()) continue;
      auto it = pending.find(addr + i);
      if (it != pending.end() && violations.size() < 16)
        violations.push_back({addr + i, it->second, machine->instructions()});
    }
  }
  void on_store(Addr addr, unsigned size, Segment) override {
    for (unsigned i = 0; i < size && !pending.empty(); ++i)
      pending.erase(addr + i);
  }
};

struct DeadClaim {
  Addr addr = 0;           // byte the analysis called dead from here on
  std::uint64_t time = 0;  // rank-local instruction count at the pause
};

void validate_precision_ladder(const apps::App& app) {
  const Program program = app.link();
  const ProgramAnalysis pa(program);
  simmpi::World world(program, app.world);

  std::vector<TraceProbe> probes(world.size());
  for (int r = 0; r < world.size(); ++r) {
    probes[r].machine = &world.machine(r);
    world.machine(r).memory().set_observer(&probes[r]);
  }

  // One sample byte per data/BSS symbol keeps the per-pause sweep cheap.
  std::vector<Addr> samples;
  for (const Symbol& s : program.symbols())
    if (s.segment == Segment::kData || s.segment == Segment::kBss)
      samples.push_back(s.address);

  std::uint64_t fp_checked = 0, window_only = 0;
  std::uint64_t heap_dead_seen = 0, frame_dead_seen = 0;
  std::vector<std::vector<DeadClaim>> claims(world.size());
  // Payload ranges of observed chunks whose allocation site the heap rung
  // calls write-only: no byte of them may EVER be read (payload addr ->
  // size, deduplicated across pauses).
  std::vector<std::map<Addr, std::uint32_t>> dead_chunks(world.size());
  while (world.status() == simmpi::JobStatus::kRunning) {
    world.advance();
    for (int r = 0; r < world.size(); ++r) {
      const Machine& m = world.machine(r);
      if (m.state() == RunState::kExited || m.state() == RunState::kTrapped)
        continue;
      const Addr pc = m.regs().pc;
      // Heap rung: classify every live user chunk exactly as the injector
      // would at this pause.
      for (const Heap::Chunk& c : world.process(r).heap().live_chunks()) {
        if (c.tag != AllocTag::kUser || c.site == 0 || c.size == 0) continue;
        if (pa.heap_site_dead(c.site)) {
          if (dead_chunks[r].emplace(c.payload, c.size).second)
            ++heap_dead_seen;
        } else if (pa.covers(pc) && pa.heap_site_dead_at(c.site, pc)) {
          for (std::uint32_t i = 0; i < c.size; ++i)
            probes[static_cast<std::size_t>(r)].claim(c.payload + i);
        }
      }
      // Stack rung: every byte of every user frame, attributed through the
      // walker's owner pc — the injector's exact addressing.
      for (const Frame& f : user_frames(m)) {
        for (Addr a = f.lo; a < f.hi; ++a) {
          const auto slot = static_cast<std::int32_t>(a - f.fp);
          if (!pa.stack_slot_dead(f.owner_pc, slot)) continue;
          probes[static_cast<std::size_t>(r)].claim(a);
          ++frame_dead_seen;
        }
      }
      if (!pa.covers(pc)) continue;
      for (unsigned p = 0; p < kNumFpr; ++p) {
        if (!pa.fpu_slot_dead_at(pc, p)) continue;
        ASSERT_EQ(m.regs().fpu.tag(p), FpuTag::kEmpty)
            << app.name << " slot " << p << " at pc " << pc;
        ++fp_checked;
      }
      for (Addr a : samples) {
        if (!pa.data_byte_dead_at(a, pc) || pa.data_byte_dead(a)) continue;
        claims[r].push_back({a, m.instructions()});
        ++window_only;
      }
    }
    if (world.global_instructions() > 500'000'000ull) break;
  }
  ASSERT_EQ(world.status(), simmpi::JobStatus::kCompleted) << app.name;

  // Time-windowed deadness: no rank read a claimed-dead byte after the
  // pause at which the claim was made.
  for (int r = 0; r < world.size(); ++r) {
    for (const DeadClaim& c : claims[r]) {
      auto it = probes[r].last_load.find(c.addr);
      if (it == probes[r].last_load.end()) continue;
      ASSERT_LE(it->second, c.time)
          << app.name << " rank " << r << " read byte " << c.addr
          << " after it was claimed dead";
    }
  }

  // Heap rung: a chunk from a write-only allocation site must never have a
  // payload byte read, at any time — the injector prunes flips there
  // unconditionally.
  for (int r = 0; r < world.size(); ++r) {
    for (const auto& [payload, size] : dead_chunks[r]) {
      auto it = probes[r].last_load.lower_bound(payload);
      if (it != probes[r].last_load.end() && it->first < payload + size)
        FAIL() << app.name << " rank " << r << " read byte " << it->first
               << " of write-only-site chunk at " << payload;
    }
  }

  // Stack (and windowed-heap) claims: a byte claimed dead-from-here must be
  // rewritten before it is next read. The probe detects violations online.
  for (int r = 0; r < world.size(); ++r) {
    for (const auto& v : probes[r].violations)
      ADD_FAILURE() << app.name << " rank " << r << " read byte " << v.addr
                    << " at t=" << v.load_time
                    << " claimed dead at t=" << v.claim_time;
  }

  // Refined reachability over-approximates the golden run's fetch set.
  std::size_t refined_cut = 0;
  for (int r = 0; r < world.size(); ++r) {
    for (Addr pc : probes[r].fetched) {
      if (!pa.text_reachable(pc)) continue;  // library text is out of scope
      ASSERT_TRUE(pa.text_reachable_refined(pc))
          << app.name << " fetched pc " << pc << " outside the refined set";
    }
  }
  const auto& cfg = pa.cfg();
  for (Addr pc = cfg.user_text_base(); pc < cfg.user_text_end(); pc += 4)
    if (pa.text_reachable(pc) && !pa.text_reachable_refined(pc)) ++refined_cut;

  // Every rung must have had actual bite on its showcase app. The heap and
  // frame rungs must bite on every paper app (the analyze inventory gate
  // makes the same promise statically; this is the dynamic half).
  EXPECT_GT(fp_checked, 0u) << app.name;
  EXPECT_GT(heap_dead_seen, 0u)
      << app.name << ": no live chunk from a write-only allocation site";
  EXPECT_GT(frame_dead_seen, 0u)
      << app.name << ": no user-frame slot claimed by the activation window";
  if (app.name == "wavetoy") {
    EXPECT_GT(window_only, 0u) << "time windows proved nothing extra";
    EXPECT_GT(refined_cut, 0u) << "value ranges cut nothing from base";
  }
}

TEST(PrecisionTrace, WavetoyClaimsHoldDynamically) {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 6;
  cfg.steps = 6;
  validate_precision_ladder(apps::make_wavetoy(cfg));
}

TEST(PrecisionTrace, MinimdClaimsHoldDynamically) {
  apps::MinimdConfig cfg;
  cfg.ranks = 4;
  cfg.steps = 4;
  validate_precision_ladder(apps::make_minimd(cfg));
}

TEST(PrecisionTrace, AtmoClaimsHoldDynamically) {
  apps::AtmoConfig cfg;
  cfg.ranks = 4;
  cfg.steps = 4;
  validate_precision_ladder(apps::make_atmo(cfg));
}

}  // namespace
}  // namespace fsim::svm::analysis

// Pre-injection pruning speedup: injected runs per second at --prune=off
// and --prune=full on a wavetoy campaign covering every region the static
// analysis can prune (registers, FP stack, text, data, BSS, stack frames,
// heap chunks), emitted as JSON. Pruning classifies statically dead flips
// Correct without resuming the run, so both configurations must produce
// bit-identical aggregates; the JSON records a digest over every
// prune-invariant field (executions, skipped, manifestation counts, crash
// kinds, activation split) plus per-region pruned fractions, so
// regressions in speed, equivalence or analysis coverage are all visible
// from the same artifact.
//
//   bench_prune_speedup [--runs=N] [--seed=S] [--jobs=N]
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "bench_util.hpp"
#include "util/json.hpp"

using namespace fsim;

namespace {

apps::App small_wavetoy() {
  apps::WavetoyConfig cfg;
  cfg.ranks = 4;
  cfg.columns = 8;
  cfg.rows = 8;
  cfg.steps = 8;
  cfg.cold_functions = 10;
  cfg.cold_heap_arrays = 1;
  return apps::make_wavetoy(cfg);
}

const std::vector<core::Region> kRegions = {
    core::Region::kRegularReg, core::Region::kFpReg, core::Region::kText,
    core::Region::kData,       core::Region::kBss,   core::Region::kStack,
    core::Region::kHeap,
};

struct Measured {
  core::PruneLevel level = core::PruneLevel::kOff;
  double seconds = 0;
  double runs_per_sec = 0;
  int pruned = 0;
  std::vector<int> pruned_by_region;  // parallel to kRegions
  std::array<int, core::kNumPruneRungs> pruned_rungs{};  // summed over regions
  std::uint64_t digest = 0;  // checksum of the prune-invariant aggregates

  int rung(core::PruneRung r) const noexcept {
    return pruned_rungs[static_cast<unsigned>(r)];
  }
};

std::uint64_t digest_counts(const core::CampaignResult& res) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const auto& rr : res.regions) {
    mix(static_cast<std::uint64_t>(rr.region));
    mix(static_cast<std::uint64_t>(rr.executions));
    mix(static_cast<std::uint64_t>(rr.skipped));
    for (int c : rr.counts) mix(static_cast<std::uint64_t>(c));
    for (int k : rr.crash_kinds) mix(static_cast<std::uint64_t>(k));
    // The activation split is injection-side (tagged before the run is
    // resumed or short-circuited), so it too must match across modes.
    // rr.pruned is intentionally NOT part of the digest: it differs by
    // construction (0 with pruning off).
    for (int e : rr.act_executions) mix(static_cast<std::uint64_t>(e));
    for (const auto& per_class : rr.act_counts)
      for (int c : per_class) mix(static_cast<std::uint64_t>(c));
  }
  return h;
}

Measured measure(const apps::App& app, const bench::BenchArgs& args,
                 core::PruneLevel level, int repeats) {
  core::CampaignConfig cfg;
  cfg.runs_per_region = args.runs;
  cfg.seed = args.seed;
  cfg.jobs = args.jobs > 1 ? args.jobs : 1;
  cfg.prune = level;
  cfg.regions = kRegions;
  Measured m;
  m.level = level;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::CampaignResult res = core::run_campaign(app, cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    // Best-of-N: the minimum is the least scheduler-noise-polluted sample.
    if (rep == 0 || s < m.seconds) m.seconds = s;
    m.digest = digest_counts(res);  // identical every repeat (deterministic)
    m.pruned = 0;
    m.pruned_by_region.clear();
    m.pruned_rungs.fill(0);
    for (const auto& rr : res.regions) {
      m.pruned += rr.pruned;
      m.pruned_by_region.push_back(rr.pruned);
      for (unsigned i = 0; i < core::kNumPruneRungs; ++i)
        m.pruned_rungs[i] += rr.pruned_rungs[i];
    }
  }
  const double total_runs = static_cast<double>(args.runs) * kRegions.size();
  m.runs_per_sec = m.seconds > 0 ? total_runs / m.seconds : 0;
  return m;
}

void write_level(util::JsonWriter& w, const bench::BenchArgs& args,
                 const Measured& m) {
  w.key(core::prune_level_name(m.level));
  w.begin_object();
  w.key("seconds").value(m.seconds);
  w.key("runs_per_sec").value(m.runs_per_sec);
  w.key("pruned_runs").value(m.pruned);
  w.key("pruned_fraction");
  w.begin_object();
  for (std::size_t i = 0; i < kRegions.size(); ++i)
    w.key(core::region_token(kRegions[i]))
        .value(args.runs > 0
                   ? static_cast<double>(m.pruned_by_region[i]) / args.runs
                   : 0.0);
  w.end_object();
  w.key("pruned_rungs");
  w.begin_object();
  for (unsigned i = 1; i < core::kNumPruneRungs; ++i)
    w.key(core::prune_rung_token(static_cast<core::PruneRung>(i)))
        .value(m.pruned_rungs[i]);
  w.end_object();
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::parse_args(argc, argv, 120);
  args.quiet = true;

  const apps::App app = small_wavetoy();
  std::fprintf(stderr,
               "prune speedup: %d runs x %zu regions, prune off|full\n",
               args.runs, kRegions.size());
  constexpr int kRepeats = 3;
  const Measured off = measure(app, args, core::PruneLevel::kOff, kRepeats);
  const Measured full = measure(app, args, core::PruneLevel::kFull, kRepeats);

  const bool identical = off.digest == full.digest;
  // Full pruning must actually reach past the integer registers: the FP
  // stack (index 1 in kRegions) and text (index 2) both prune runs, and
  // every rung of the precision ladder must have decided at least one run
  // — losing a rung silently would be a throughput regression the digest
  // equality above cannot see.
  const bool coverage = full.pruned_by_region[0] > 0 &&
                        full.pruned_by_region[1] > 0 &&
                        full.pruned_by_region[2] > 0 &&
                        full.rung(core::PruneRung::kBase) > 0 &&
                        full.rung(core::PruneRung::kFpCtx) > 0 &&
                        full.rung(core::PruneRung::kTimeWindow) > 0 &&
                        full.rung(core::PruneRung::kValueRange) > 0 &&
                        full.rung(core::PruneRung::kHeap) > 0 &&
                        full.rung(core::PruneRung::kFrame) > 0;

  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("prune_speedup");
  w.key("app").value(app.name);
  w.key("runs_per_region").value(args.runs);
  w.key("seed").value(args.seed);
  write_level(w, args, off);
  write_level(w, args, full);
  w.key("speedup_full").value(off.seconds > 0 && full.seconds > 0
                                  ? off.seconds / full.seconds
                                  : 0.0);
  w.key("aggregates_identical").value(identical);
  w.key("coverage_ok").value(coverage);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return identical && coverage ? 0 : 1;
}

#include "core/run.hpp"

#include <memory>
#include <sstream>

#include "core/injector.hpp"
#include "svm/trap.hpp"
#include "simmpi/world.hpp"
#include "util/status.hpp"

namespace fsim::core {

namespace {

CrashKind classify_trap(svm::Trap t) {
  switch (t) {
    case svm::Trap::kBadAddress:
    case svm::Trap::kWriteProtected:
    case svm::Trap::kStackOverflow:
      return CrashKind::kSigsegv;
    case svm::Trap::kIllegalInstruction:
      return CrashKind::kSigill;
    case svm::Trap::kIntDivideByZero:
      return CrashKind::kSigfpe;
    case svm::Trap::kMisaligned:
      return CrashKind::kSigbus;
    default:
      return CrashKind::kOther;
  }
}

const std::string& baseline_stream(const apps::App& app,
                                   const simmpi::World& world,
                                   std::string& storage) {
  if (app.baseline == apps::BaselineStream::kConsole) {
    storage = world.console();
    return storage;
  }
  return world.output();
}

}  // namespace

const char* prune_level_name(PruneLevel level) noexcept {
  switch (level) {
    case PruneLevel::kOff:
      return "off";
    case PruneLevel::kFull:
      return "full";
  }
  return "off";
}

std::optional<PruneLevel> parse_prune_level(std::string_view text) noexcept {
  if (text == "off") return PruneLevel::kOff;
  if (text == "full") return PruneLevel::kFull;
  return std::nullopt;
}

namespace {

/// Golden snapshot cadence: one at t=0, then one at the first scheduler
/// boundary at or after each multiple of the interval. The interval starts
/// small and doubles whenever the list outgrows kMaxSnapshots (every other
/// snapshot is dropped), so a run of any length beyond
/// kMaxSnapshots * kFirstSnapshotInterval instructions ends with between
/// kMaxSnapshots/2 and kMaxSnapshots evenly spread snapshots.
constexpr std::uint64_t kFirstSnapshotInterval = 1u << 16;
constexpr std::size_t kMaxSnapshots = 32;

}  // namespace

Golden run_golden(const apps::App& app, const svm::Program& program,
                  std::uint64_t seed, svm::exec::EngineKind engine,
                  std::shared_ptr<const svm::exec::CompiledProgram> compiled) {
  simmpi::WorldOptions opts = app.world;
  opts.seed = seed;
  opts.machine.engine = engine;
  opts.machine.compiled = std::move(compiled);
  simmpi::World world(program, opts);

  // World::run's loop, snapshotting at the top of an iteration: exactly the
  // boundaries run_injected's loop tests t_inject at.
  auto snapshots = std::make_shared<std::vector<simmpi::Snapshot>>();
  std::uint64_t interval = kFirstSnapshotInterval;
  std::uint64_t next = 0;
  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < 4'000'000'000ull) {
    const std::uint64_t now = world.global_instructions();
    if (now >= next) {
      // Against the previous snapshot: unchanged memory blocks are shared.
      snapshots->push_back(simmpi::Snapshot::capture(
          world, snapshots->empty() ? nullptr : &snapshots->back()));
      if (snapshots->size() > kMaxSnapshots) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < snapshots->size(); i += 2)
          (*snapshots)[kept++] = std::move((*snapshots)[i]);
        snapshots->resize(kept);
        interval *= 2;
      }
      next = (now / interval + 1) * interval;
    }
    world.advance();
  }
  const simmpi::JobStatus status = world.status();
  if (status != simmpi::JobStatus::kCompleted)
    throw util::SetupError("golden run of '" + app.name +
                           "' did not complete (status " +
                           std::to_string(static_cast<int>(status)) + "):\n" +
                           world.console());
  Golden g;
  g.instructions = world.global_instructions();
  std::string storage;
  g.baseline = baseline_stream(app, world, storage);
  for (int r = 0; r < world.size(); ++r)
    g.rx_bytes.push_back(world.process(r).channel().received_bytes());
  g.hang_budget = static_cast<std::uint64_t>(
                      static_cast<double>(g.instructions) *
                      app.hang_budget_factor) +
                  200'000;
  g.snapshots = std::move(snapshots);
  return g;
}

std::unique_ptr<simmpi::World> make_run_world(const apps::App& app,
                                              const svm::Program& program,
                                              const RunContext& ctx) {
  simmpi::WorldOptions opts = app.world;
  opts.seed = 1;  // as the golden run's; the restore resets it anyway
  opts.machine.engine = ctx.engine;
  opts.machine.compiled = ctx.compiled;
  return std::make_unique<simmpi::World>(program, opts);
}

RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx, simmpi::World* reuse) {
  if (!golden.snapshots || golden.snapshots->empty())
    throw util::SetupError("run_injected: the golden run of '" + app.name +
                           "' carries no snapshots (use run_golden's result)");
  util::Rng rng(seed);
  // The fault is injected into the World's memory, never into `program`, so
  // runs sharing the image stay independent (and safe to execute
  // concurrently, each on its own World).
  std::unique_ptr<simmpi::World> own;
  if (reuse == nullptr) own = make_run_world(app, program, ctx);
  simmpi::World& world = reuse ? *reuse : *own;

  RunOutcome outcome;
  std::ostringstream desc;

  const std::uint64_t t_inject =
      golden.instructions ? rng.below(golden.instructions) : 0;

  // Fast-forward: start from the latest golden snapshot strictly before
  // t_inject. The loop below injects at its first boundary with
  // global_instructions() >= t_inject; every boundary up to the snapshot's
  // lies below t_inject, so none of them would have injected, and the
  // boundaries after it are the golden run's own. (A snapshot *at*
  // t_inject is not used: a round that executes no instruction leaves two
  // boundaries at the same count, and the loop injects at the first.)
  // Message faults are armed before the first instruction: t=0.
  const std::vector<simmpi::Snapshot>& snaps = *golden.snapshots;
  const simmpi::Snapshot* start = &snaps.front();
  if (region != Region::kMessage)
    for (const simmpi::Snapshot& s : snaps)
      if (s.instructions() < t_inject) start = &s;
  start->restore(world);

  if (region == Region::kMessage) {
    // §3.3: choose a process, then a uniformly random point in its golden
    // received volume; the channel flips the bit when the counter passes it.
    std::vector<int> candidates;
    for (int r = 0; r < world.size(); ++r)
      if (golden.rx_bytes[static_cast<std::size_t>(r)] > 0)
        candidates.push_back(r);
    if (candidates.empty()) {
      outcome.fault_description = "no rank receives traffic";
      return outcome;
    }
    const int rank = candidates[rng.below(candidates.size())];
    const std::uint64_t byte =
        rng.below(golden.rx_bytes[static_cast<std::size_t>(rank)]);
    const unsigned bit = static_cast<unsigned>(rng.below(8));
    world.process(rank).channel().arm_fault(byte, bit);
    outcome.fault_applied = true;
    desc << "message stream of rank " << rank << " byte " << byte << " bit "
         << bit;
    outcome.injected_at = byte;
  }

  Injector injector(region, dictionary, ctx.analysis);
  bool injected = region == Region::kMessage;

  while (world.status() == simmpi::JobStatus::kRunning &&
         world.global_instructions() < golden.hang_budget) {
    if (!injected && world.global_instructions() >= t_inject) {
      // Keep attempting until a viable target exists (e.g. the heap may
      // hold no user chunk in the first instants of the run).
      if (auto fault = injector.inject(world, rng)) {
        injected = true;
        outcome.fault_applied = true;
        outcome.activation = fault->activation;
        outcome.injected_at = world.global_instructions();
        desc << "rank " << fault->rank << ": " << fault->target << " at t="
             << outcome.injected_at;
        // Pre-injection pruning: a fault tagged statically dead carries a
        // proof that the flipped bit is never observed (register
        // overwritten before any read on every path, FP slot provably
        // empty behind its tag, text never fetched, data/BSS symbol never
        // read, heap chunk whose allocation site is read-free, stack slot
        // its activation never reads again) — resuming would replay the
        // golden run to completion. Classify Correct now and skip the
        // simulation, for the regions the configured level covers.
        if (prune_allows(ctx.prune, region) &&
            fault->activation == Activation::kDead) {
          outcome.pruned = true;
          outcome.prune_rung = fault->rung;
          outcome.manifestation = Manifestation::kCorrect;
          outcome.fault_description = desc.str() + " (pruned: statically dead)";
          outcome.instructions = world.global_instructions();
          return outcome;
        }
      }
    }
    world.advance();
  }

  outcome.fault_description = desc.str();
  outcome.instructions = world.global_instructions();

  if (region == Region::kMessage) {
    for (int r = 0; r < world.size(); ++r) {
      const simmpi::ChannelFault& f = world.process(r).channel().fault();
      if (f.armed && f.fired) {
        outcome.msg_fired = true;
        outcome.msg_hit_header = f.hit_header;
        outcome.msg_offset_in_packet = f.offset_in_packet;
      }
    }
  }

  switch (world.status()) {
    case simmpi::JobStatus::kCrashed:
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = classify_trap(world.crash_trap());
      outcome.failure_detail = world.failure_message();
      break;
    case simmpi::JobStatus::kMpiFatal:
      // MPICH-reported fatal errors appear on STDERR and are classified as
      // crashes, exactly like critical signals (§5.1).
      outcome.manifestation = Manifestation::kCrash;
      outcome.crash_kind = CrashKind::kMpiFatal;
      outcome.failure_detail = "MPICH fatal: " + world.failure_message();
      break;
    case simmpi::JobStatus::kAppAborted:
      outcome.manifestation = Manifestation::kAppDetected;
      break;
    case simmpi::JobStatus::kMpiHandler:
      outcome.manifestation = Manifestation::kMpiDetected;
      break;
    case simmpi::JobStatus::kDeadlocked:
    case simmpi::JobStatus::kRunning:  // hang budget exhausted
      outcome.manifestation = Manifestation::kHang;
      outcome.failure_detail = world.status() == simmpi::JobStatus::kRunning
                                   ? "timeout"
                                   : "deadlock";
      break;
    case simmpi::JobStatus::kCompleted: {
      std::string storage;
      const std::string& observed = baseline_stream(app, world, storage);
      if (observed == golden.baseline) {
        outcome.manifestation = Manifestation::kCorrect;
      } else {
        outcome.manifestation = Manifestation::kIncorrect;
        outcome.failure_detail = "silent output corruption";
      }
      break;
    }
  }
  return outcome;
}

}  // namespace fsim::core

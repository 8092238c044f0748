// Single-execution driver: golden (fault-free) runs and injected runs with
// outcome classification (§5.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "core/dictionary.hpp"
#include "core/outcome.hpp"
#include "simmpi/snapshot.hpp"
#include "svm/exec/engine.hpp"
#include "util/rng.hpp"

namespace fsim::svm::analysis {
class ProgramAnalysis;
}
namespace fsim::svm::exec {
class CompiledProgram;
}
namespace fsim::simmpi {
class World;
}

namespace fsim::core {

/// Everything the classifier needs from the fault-free reference execution.
struct Golden {
  std::uint64_t instructions = 0;       // global instruction count
  std::string baseline;                 // output file or console (per app)
  std::vector<std::uint64_t> rx_bytes;  // received volume per rank (§3.3)
  std::uint64_t hang_budget = 0;        // instructions before we call it a hang
  /// Whole-job snapshots of the golden execution, ascending in
  /// instructions(): the first at t=0, the rest at scheduler boundaries
  /// the run visited, at most 32 spread over the run. Injected runs start
  /// from them instead of replaying the prefix (see run_injected). They are
  /// images of the one Program the golden run executed, so a Golden is
  /// only ever paired with that Program. Not part of any identity, digest
  /// or document: checkpoints and result files carry the fields above.
  std::shared_ptr<const std::vector<simmpi::Snapshot>> snapshots;
};

/// Run the application fault-free against a linked image and snapshot it
/// along the way. Throws SetupError if it does not complete — a broken
/// golden run invalidates the whole campaign. The assembler is
/// deterministic, so drivers link once and share the `Program` read-only
/// across the golden run and every injected run — including across the
/// campaign executor's worker threads. `seed` is the world seed of the
/// golden execution, and through its snapshots that of every injected run.
Golden run_golden(
    const apps::App& app, const svm::Program& program, std::uint64_t seed = 1,
    svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded,
    std::shared_ptr<const svm::exec::CompiledProgram> compiled = nullptr);

/// Which statically-dead fault classes may be classified Correct without
/// resuming the run. Every level is sound — aggregates are bit-identical
/// across levels; higher levels merely skip more already-decided runs.
/// kFull is 2 because checkpoint blobs and checkpoint digests store the
/// numeric value; 1 is refused on read.
enum class PruneLevel : std::uint8_t {
  kOff = 0,   // never prune
  kFull = 2,  // dead integer registers, provably empty FP slots, unreachable
              // text, dead data/BSS, dead heap allocation sites, dead
              // stack-frame slots
};

/// "off" | "full".
const char* prune_level_name(PruneLevel level) noexcept;

/// Parse a --prune value ("off" | "full"); nullopt on anything else.
std::optional<PruneLevel> parse_prune_level(std::string_view text) noexcept;

/// Does `level` allow pruning a statically-dead fault in `region`?
/// (Message faults carry no static proof at any level.)
constexpr bool prune_allows(PruneLevel level, Region region) noexcept {
  switch (level) {
    case PruneLevel::kOff:
      return false;
    case PruneLevel::kFull:
      return region == Region::kRegularReg || region == Region::kFpReg ||
             region == Region::kText || region == Region::kData ||
             region == Region::kBss || region == Region::kHeap ||
             region == Region::kStack;
  }
  return false;
}

/// Static-analysis context for an injected run.
struct RunContext {
  /// Built once per campaign from the linked image; tags faults with their
  /// static activation class. May be null (no tagging, no pruning).
  const svm::analysis::ProgramAnalysis* analysis = nullptr;
  /// Pre-injection pruning level: a fault tagged statically dead in a
  /// region the level covers is classified Correct immediately, without
  /// resuming the run — sound because the flip is provably never observed
  /// (register overwritten before any read, FP slot behind an empty tag,
  /// text never fetched, data/BSS symbol never read, heap chunk whose
  /// allocation site is write-only, stack-frame slot never read by its
  /// activation), so the full run would replay the golden execution.
  PruneLevel prune = PruneLevel::kOff;
  /// Execution engine for every machine of the run. Both engines are
  /// bit-identical at quantum boundaries, so this never changes outcomes —
  /// only throughput.
  svm::exec::EngineKind engine = svm::exec::EngineKind::kThreaded;
  /// Pre-lowered instruction stream shared across runs (campaigns lower
  /// once per batch entry). Null = each machine lowers its own lazily.
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
};

/// Run once with a single injected fault and classify the outcome, against
/// the pre-linked image `golden` was run on (see run_golden above).
///  * memory/register regions: the fault fires at a uniformly random global
///    instruction t in [0, golden.instructions);
///  * message region: a {byte, bit} fault is armed on a random rank's
///    channel with the byte uniform in that rank's golden received volume.
/// `ctx` adds activation tagging and optional pre-injection pruning; the
/// default context tags and prunes nothing.
///
/// The run starts from the latest golden snapshot strictly before t (the
/// t=0 snapshot for message faults) rather than replaying the prefix: the
/// prefix *is* the golden execution, and every snapshot sits on a
/// scheduler boundary the injection loop visits, so the fault lands at the
/// same instant and the outcome is the one a full replay gives.
///
/// `world`, when given, is rewound and reused instead of building a World
/// per run; it must have been built from `program` with the app's world
/// options and ctx's engine and compiled stream (the restore overwrites all
/// of its state, so nothing carries over from its previous run). Null
/// builds a fresh one.
RunOutcome run_injected(const apps::App& app, const svm::Program& program,
                        const Golden& golden, Region region,
                        const FaultDictionary* dictionary, std::uint64_t seed,
                        const RunContext& ctx = {},
                        simmpi::World* world = nullptr);

/// The World run_injected builds for `program` under `ctx` — what a caller
/// reusing one World across runs constructs once.
std::unique_ptr<simmpi::World> make_run_world(const apps::App& app,
                                              const svm::Program& program,
                                              const RunContext& ctx);

}  // namespace fsim::core

#include "core/campaign.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/dictionary.hpp"
#include "core/sampling.hpp"
#include "simmpi/world.hpp"
#include "util/status.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/exec/compiled.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace fsim::core {

// Named (not anonymous) so BatchSession::Impl can hold CampaignPlans
// without tripping GCC's -Wsubobject-linkage; still internal to this file.
namespace batch_detail {

std::uint64_t run_seed_for(const CampaignConfig& config, Region region,
                           int i) {
  return util::hash_seed({config.seed, static_cast<std::uint64_t>(region),
                          static_cast<std::uint64_t>(i)});
}

/// Per-campaign immutable state shared read-only by every worker: the
/// linked image, the golden reference, the static-region fault
/// dictionaries and the static analysis that tags/prunes injections.
struct CampaignPlan {
  svm::Program program;
  std::array<std::unique_ptr<FaultDictionary>, kNumRegions> dicts;
  std::unique_ptr<svm::analysis::ProgramAnalysis> analysis;
  /// Pre-decoded instruction stream, lowered once per campaign in the
  /// basic-block order of the analysis CFG and shared read-only by every
  /// worker's machines (each machine clones it privately only if a text
  /// flip lands).
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
  RunContext ctx;
};

CampaignPlan prepare_campaign(const apps::App& app,
                              const CampaignConfig& config,
                              CampaignResult& result) {
  CampaignPlan plan;
  result.app = app.name;
  result.seed = config.seed;

  // Link exactly once per campaign: the assembler is deterministic and the
  // image is only ever read after this point, so the golden run, the fault
  // dictionaries and every injected run (on any worker) share it.
  plan.program = app.link();

  // Dictionaries for the static regions are built once per campaign from
  // the linked image (§3.2: "several thousand addresses randomly selected").
  util::Rng dict_rng(util::hash_seed({config.seed, 0xd1c7}));
  for (Region r : {Region::kText, Region::kData, Region::kBss}) {
    plan.dicts[static_cast<unsigned>(r)] = std::make_unique<FaultDictionary>(
        plan.program, r, dict_rng, config.dictionary_entries);
  }

  // Static analysis of the linked image, built once and shared read-only
  // by every worker: liveness tags register faults, the FP-depth bounds
  // tag FP data-slot faults, reachability tags text entries and the memory
  // liveness scan tags data/BSS entries. Dead-tagged faults are pruned for
  // the regions config.prune covers.
  plan.analysis =
      std::make_unique<svm::analysis::ProgramAnalysis>(plan.program);
  if (auto& d = plan.dicts[static_cast<unsigned>(Region::kText)]; d)
    d->annotate(
        [&](svm::Addr a) { return plan.analysis->text_reachable_refined(a); },
        [&](svm::Addr a) {
          // Ladder attribution: base reachability already proves most dead
          // text; only entries the branch-deciding refinement alone kills
          // are credited to the value-range rung.
          return plan.analysis->text_reachable(a) ? PruneRung::kValueRange
                                                  : PruneRung::kBase;
        });
  for (Region r : {Region::kData, Region::kBss}) {
    if (auto& d = plan.dicts[static_cast<unsigned>(r)]; d)
      d->annotate(
          [&](svm::Addr a) { return !plan.analysis->data_byte_dead(a); });
  }

  // Compile stage: lower the image once in the CFG's basic-block order;
  // the golden run and every injected run share the stream read-only.
  plan.compiled = std::make_shared<svm::exec::CompiledProgram>(
      plan.program, plan.analysis->cfg());

  result.golden = run_golden(app, plan.program, 1, config.engine,
                             plan.compiled);

  plan.ctx = RunContext{plan.analysis.get(), config.prune, config.engine,
                        plan.compiled};
  return plan;
}

}  // namespace batch_detail

using batch_detail::CampaignPlan;
using batch_detail::prepare_campaign;
using batch_detail::run_seed_for;

void accumulate_outcome(RegionResult& rr, const RunOutcome& out) {
  ++rr.executions;
  if (!out.fault_applied) ++rr.skipped;
  ++rr.counts[static_cast<unsigned>(out.manifestation)];
  if (out.manifestation == Manifestation::kCrash)
    ++rr.crash_kinds[static_cast<unsigned>(out.crash_kind)];
  if (out.pruned) {
    ++rr.pruned;
    ++rr.pruned_rungs[static_cast<unsigned>(out.prune_rung)];
  }
  if (out.activation != Activation::kUnknown) {
    const unsigned a = out.activation == Activation::kDead
                           ? RegionResult::kDeadIdx
                           : RegionResult::kLiveIdx;
    ++rr.act_executions[a];
    ++rr.act_counts[a][static_cast<unsigned>(out.manifestation)];
  }
}

void merge_region_counts(RegionResult& into, const RegionResult& from) {
  into.executions += from.executions;
  into.skipped += from.skipped;
  for (unsigned m = 0; m < kNumManifestations; ++m)
    into.counts[m] += from.counts[m];
  for (unsigned k = 0; k < kNumCrashKinds; ++k)
    into.crash_kinds[k] += from.crash_kinds[k];
  into.pruned += from.pruned;
  for (unsigned r = 0; r < kNumPruneRungs; ++r)
    into.pruned_rungs[r] += from.pruned_rungs[r];
  for (unsigned a = 0; a < 2; ++a) {
    into.act_executions[a] += from.act_executions[a];
    for (unsigned m = 0; m < kNumManifestations; ++m)
      into.act_counts[a][m] += from.act_counts[a][m];
  }
}

CampaignSpec spec_of(const std::string& app_name,
                     const CampaignConfig& config) {
  CampaignSpec spec;
  spec.app = app_name;
  spec.runs_per_region = config.runs_per_region;
  spec.seed = config.seed;
  spec.regions = config.regions;
  spec.dictionary_entries = config.dictionary_entries;
  spec.prune = config.prune;
  spec.engine = config.engine;
  return spec;
}

std::vector<BatchEntry> entries_for_specs(
    const std::vector<CampaignSpec>& specs) {
  std::vector<BatchEntry> entries;
  entries.reserve(specs.size());
  for (const auto& spec : specs) {
    BatchEntry e;
    e.app = apps::make_app(spec.app, spec.params);
    e.params = spec.params;
    e.config.runs_per_region = spec.runs_per_region;
    e.config.seed = spec.seed;
    e.config.regions = spec.regions;
    e.config.dictionary_entries = spec.dictionary_entries;
    e.config.prune = spec.prune;
    e.config.engine = spec.engine;
    entries.push_back(std::move(e));
  }
  return entries;
}

// --- BatchSession ---

struct BatchSession::Impl {
  const std::vector<BatchEntry>& entries;
  std::vector<CampaignPlan> plans;
  std::vector<CampaignSpec> specs;
  std::vector<CampaignResult> campaigns;  // skeletons: app/seed/golden
  std::vector<std::size_t> slot_base;     // ncamp + 1 cumulative regions
  std::vector<std::uint64_t> grid_base;   // ncamp + 1 cumulative grid sizes
  std::unique_ptr<util::ThreadPool> pool; // created only for jobs > 1
  std::mutex observer_mu;
  /// One World per (worker, campaign), built on the worker's first run of
  /// the campaign and rewound by every later one (run_injected restores a
  /// golden snapshot first, so nothing carries over between runs). The
  /// serial path is worker 0.
  std::vector<std::vector<std::unique_ptr<simmpi::World>>> worlds;

  simmpi::World& world_for(std::size_t worker, std::size_t campaign) {
    std::unique_ptr<simmpi::World>& w = worlds[worker][campaign];
    if (!w)
      w = make_run_world(entries[campaign].app, plans[campaign].program,
                         plans[campaign].ctx);
    return *w;
  }

  explicit Impl(const std::vector<BatchEntry>& e) : entries(e) {}
};

BatchSession::BatchSession(const std::vector<BatchEntry>& entries, int jobs)
    : impl_(std::make_unique<Impl>(entries)) {
  const std::size_t ncamp = entries.size();
  impl_->plans.reserve(ncamp);
  impl_->campaigns.resize(ncamp);
  impl_->slot_base.assign(ncamp + 1, 0);
  impl_->grid_base.assign(ncamp + 1, 0);
  for (std::size_t c = 0; c < ncamp; ++c) {
    impl_->plans.push_back(prepare_campaign(entries[c].app, entries[c].config,
                                            impl_->campaigns[c]));
    impl_->specs.push_back(spec_of(entries[c].app.name, entries[c].config));
    impl_->specs.back().params = entries[c].params;
    const CampaignConfig& cc = entries[c].config;
    impl_->slot_base[c + 1] = impl_->slot_base[c] + cc.regions.size();
    impl_->grid_base[c + 1] =
        impl_->grid_base[c] +
        static_cast<std::uint64_t>(cc.regions.size()) *
            static_cast<std::uint64_t>(cc.runs_per_region);
  }
  if (jobs > 1)
    impl_->pool =
        std::make_unique<util::ThreadPool>(static_cast<std::size_t>(jobs));
  impl_->worlds.resize(impl_->pool ? impl_->pool->workers() : 1);
  for (auto& per_worker : impl_->worlds) per_worker.resize(ncamp);
}

BatchSession::~BatchSession() = default;

std::size_t BatchSession::slots() const noexcept {
  return impl_->slot_base.back();
}

std::size_t BatchSession::slot_of(std::size_t campaign,
                                  std::size_t region_index) const {
  return impl_->slot_base[campaign] + region_index;
}

std::uint64_t BatchSession::grid_index_of(std::size_t campaign,
                                          std::size_t region_index,
                                          int run) const {
  const CampaignConfig& cc = impl_->entries[campaign].config;
  return impl_->grid_base[campaign] +
         static_cast<std::uint64_t>(region_index) *
             static_cast<std::uint64_t>(cc.runs_per_region) +
         static_cast<std::uint64_t>(run);
}

const std::vector<CampaignSpec>& BatchSession::specs() const noexcept {
  return impl_->specs;
}

const std::vector<CampaignResult>& BatchSession::campaigns() const noexcept {
  return impl_->campaigns;
}

void BatchSession::run_points(const std::vector<Point>& points,
                              std::vector<RegionResult>& totals,
                              std::vector<int>& done,
                              const std::vector<int>& owned,
                              const Notify& notify) {
  Impl& im = *impl_;

  // One grid point on `worker`'s World: fold its outcome into acc[slot]
  // and report it with the completion count `bump(slot)` returns.
  auto run_point = [&](const Point& pt, std::size_t worker,
                       std::vector<RegionResult>& acc, auto&& bump) {
    const BatchEntry& e = im.entries[pt.campaign];
    const CampaignPlan& plan = im.plans[pt.campaign];
    const Region region = e.config.regions[pt.region_index];
    const std::size_t slot = im.slot_base[pt.campaign] + pt.region_index;
    const RunOutcome out = run_injected(
        e.app, plan.program, im.campaigns[pt.campaign].golden, region,
        plan.dicts[static_cast<unsigned>(region)].get(),
        run_seed_for(e.config, region, pt.run_index), plan.ctx,
        &im.world_for(worker, pt.campaign));
    accumulate_outcome(acc[slot], out);
    const int d = bump(slot);
    if (!notify) return;
    RunEvent ev;
    ev.campaign = pt.campaign;
    ev.app = &e.app.name;
    ev.region = region;
    ev.slot = slot;
    ev.run_index = pt.run_index;
    ev.grid_index = pt.grid_index;
    ev.outcome = &out;
    ev.done = d;
    ev.total = owned[slot];
    std::lock_guard<std::mutex> lock(im.observer_mu);
    notify(ev);
  };

  if (!im.pool) {
    // Serial walk in the order given — callers passing enumeration order
    // get the exact legacy execution order.
    for (const Point& pt : points)
      run_point(pt, 0, totals, [&](std::size_t slot) { return ++done[slot]; });
    return;
  }

  // Pooled: every campaign's grid points interleave across the same
  // workers. Workers accumulate lock-free into their own partials;
  // partials merge worker 0..W-1 per slot afterwards, so the aggregates
  // are bit-identical to the serial walk.
  util::ThreadPool& pool = *im.pool;
  const std::size_t nslots = slots();
  std::vector<std::vector<RegionResult>> partials(
      pool.workers(), std::vector<RegionResult>(nslots));
  std::vector<std::atomic<int>> adone(nslots);
  for (std::size_t s = 0; s < nslots; ++s)
    adone[s].store(done[s], std::memory_order_relaxed);

  for (const Point& pt : points) {
    pool.submit([&, pt] {
      const auto w =
          static_cast<std::size_t>(util::ThreadPool::current_worker());
      run_point(pt, w, partials[w], [&](std::size_t slot) {
        return 1 + adone[slot].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  pool.wait();

  for (std::size_t slot = 0; slot < nslots; ++slot)
    for (std::size_t w = 0; w < pool.workers(); ++w)
      merge_region_counts(totals[slot], partials[w][slot]);
  for (std::size_t s = 0; s < nslots; ++s)
    done[s] = adone[s].load(std::memory_order_relaxed);
}

std::vector<CampaignResult> BatchSession::attach_regions(
    const std::vector<RegionResult>& totals) const {
  std::vector<CampaignResult> out = impl_->campaigns;
  for (std::size_t c = 0; c < impl_->entries.size(); ++c) {
    // Results outlive the session; the snapshots serve only its runs.
    out[c].golden.snapshots.reset();
    const auto& regions = impl_->entries[c].config.regions;
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      RegionResult rr = totals[impl_->slot_base[c] + ri];
      rr.region = regions[ri];
      out[c].regions.push_back(std::move(rr));
    }
  }
  return out;
}

BatchStart start_batch(const std::vector<BatchEntry>& entries,
                       const ExecPolicy& exec,
                       const AdaptivePolicy* adaptive) {
  if (exec.shard.count < 1 || exec.shard.index < 0 ||
      exec.shard.index >= exec.shard.count) {
    throw util::SetupError("invalid shard " +
                           std::to_string(exec.shard.index) + "/" +
                           std::to_string(exec.shard.count));
  }

  BatchStart start;
  start.session = std::make_unique<BatchSession>(entries, exec.jobs);
  const BatchSession& session = *start.session;
  const std::size_t ncamp = entries.size();

  // Resume baseline: the checkpoint must identify exactly this batch —
  // same kind (fixed-n or adaptive), same shard, same spec list (apps,
  // params, runs, seeds, regions, dictionaries, prune) and the same golden
  // executions. Any drift would silently mix counts from different fault
  // spaces, so it is refused. An adaptive resume takes its *policy* from
  // the caller, who reuses the recorded one unless the user overrides it.
  if (const Checkpoint* resume = exec.resume) {
    if (adaptive && !resume->adaptive)
      throw util::SetupError(
          "resume: checkpoint belongs to a fixed-n campaign, not an "
          "adaptive (--ci) one");
    if (!(resume->shard == exec.shard))
      throw util::SetupError(
          "resume: checkpoint covers shard " +
          std::to_string(resume->shard.index) + "/" +
          std::to_string(resume->shard.count) + ", batch runs shard " +
          std::to_string(exec.shard.index) + "/" +
          std::to_string(exec.shard.count));
    if (!adaptive && resume->adaptive)
      throw util::SetupError(
          "resume: checkpoint belongs to an adaptive (--ci) campaign; "
          "resume it through the adaptive scheduler");
    if (resume->specs != session.specs())
      throw util::SetupError(
          "resume: checkpoint was produced by a different batch spec "
          "(apps, app params, runs, seeds, regions, dictionary sizes and "
          "prune levels must all match)");
    if (resume->slots.size() != session.slots() ||
        resume->goldens.size() != ncamp)
      throw util::SetupError("resume: checkpoint slot layout is corrupted");
    for (std::size_t c = 0; c < ncamp; ++c) {
      const Golden& g = session.campaigns()[c].golden;
      if (resume->goldens[c].instructions != g.instructions ||
          resume->goldens[c].hang_budget != g.hang_budget)
        throw util::SetupError(
            "resume: golden run for campaign '" + entries[c].app.name +
            "' disagrees with the checkpoint (the app or its config "
            "changed since the checkpoint was written)");
    }
  }

  // Checkpoint sink: an internal observer fed through the same serialized
  // dispatch as the caller's hooks. Seeded from the resume baseline so the
  // sidecar file always covers the union of old and new grid points;
  // adaptive sidecars also record the stopping rule (an override replaces
  // the recorded policy) and, via update_cell, each cell's frontier.
  if (!exec.checkpoint_path.empty()) {
    std::vector<Golden> goldens;
    for (std::size_t c = 0; c < ncamp; ++c)
      goldens.push_back(session.campaigns()[c].golden);
    Checkpoint initial =
        exec.resume ? *exec.resume
                    : make_checkpoint(session.specs(), std::move(goldens),
                                      exec.shard);
    if (adaptive) initial.adaptive = *adaptive;
    start.sink = std::make_unique<CheckpointSink>(
        exec.checkpoint_path, exec.checkpoint_every, std::move(initial),
        exec.observer, exec.checkpoint_encoding);
  }

  // Observer fan-in: caller observer, then checkpoint sink — the session
  // serializes the whole callback under one mutex, at any job count. An
  // adaptive cell is finished only when its interval says so, so there
  // on_region_done is not derived from done == total: the wave loop fires
  // it at stop time.
  CampaignObserver* observer = exec.observer;
  CheckpointSink* sink = start.sink.get();
  if (observer || sink) {
    const bool region_done = adaptive == nullptr;
    start.notify = [observer, sink, region_done](const RunEvent& ev) {
      if (observer) {
        observer->on_run_done(ev);
        if (region_done && ev.done == ev.total)
          observer->on_region_done(ev.campaign, *ev.app, ev.region, ev.done);
      }
      if (sink) sink->on_run_done(ev);
    };
  }
  return start;
}

BatchResult run_batch(const std::vector<BatchEntry>& entries,
                      const BatchConfig& config) {
  BatchStart start = start_batch(entries, config, nullptr);
  BatchSession& session = *start.session;
  const Checkpoint* resume = config.resume;
  const std::size_t ncamp = entries.size();
  const std::size_t nslots = session.slots();

  BatchResult result;
  result.shard = config.shard;
  result.specs = session.specs();

  // Explicit grid selection (service workers): restrict the invocation to
  // the selected run indices. Progress denominators then cover only the
  // selection, and the checkpoint sidecar records exactly its completions.
  const GridSelection* sel = config.selection;
  if (sel && sel->slots.size() != nslots)
    throw util::SetupError(
        "selection: slot layout does not match the batch (" +
        std::to_string(sel->slots.size()) + " slots vs " +
        std::to_string(nslots) + ")");

  // This shard's grid-point count per slot (progress denominators) and the
  // work list itself: every shard-owned (and selected) grid point not
  // already covered by the resume baseline, in enumeration order.
  std::vector<int> owned(nslots, 0);
  std::vector<BatchSession::Point> points;
  {
    std::uint64_t g = 0;
    for (std::size_t c = 0; c < ncamp; ++c) {
      const CampaignConfig& cc = entries[c].config;
      for (std::size_t ri = 0; ri < cc.regions.size(); ++ri) {
        const std::size_t slot = session.slot_of(c, ri);
        for (int i = 0; i < cc.runs_per_region; ++i, ++g) {
          if (!shard_owns(g, config.shard)) continue;
          if (sel && !sel->slots[slot].contains(i)) continue;
          ++owned[slot];
          if (resume && resume->slots[slot].done.contains(i)) continue;
          points.push_back(BatchSession::Point{c, ri, i, g});
        }
      }
    }
  }

  // Completion counters continue from the checkpoint baseline, so progress
  // displays and on_region_done see the cumulative shard state.
  std::vector<int> done(nslots, 0);
  if (resume)
    for (std::size_t s = 0; s < nslots; ++s)
      done[s] = resume->slots[s].counts.executions;

  std::vector<RegionResult> totals(nslots);
  session.run_points(points, totals, done, owned, start.notify);

  // Fold the checkpoint baseline back in: the resumed grid points ran in
  // the interrupted invocation, the rest just ran here, and every field is
  // an integer sum over the union — byte-identical to an uninterrupted run.
  if (resume)
    for (std::size_t s = 0; s < nslots; ++s)
      merge_region_counts(totals[s], resume->slots[s].counts);

  // Leave a final (complete) checkpoint behind: `fsim merge` accepts it in
  // place of the shard result, and resuming it is a no-op.
  if (start.sink) start.sink->flush();

  result.campaigns = session.attach_regions(totals);
  return result;
}

CampaignResult run_campaign(const apps::App& app,
                            const CampaignConfig& config) {
  BatchConfig bc;
  bc.exec() = config.exec();
  std::vector<BatchEntry> entries;
  entries.push_back(BatchEntry{app, config, apps::AppParams{}});
  BatchResult batch = run_batch(entries, bc);
  return std::move(batch.campaigns.front());
}

std::string format_campaign(const CampaignResult& result) {
  bool any_app = false, any_mpi = false;
  for (const auto& rr : result.regions) {
    if (rr.counts[static_cast<unsigned>(Manifestation::kAppDetected)] > 0)
      any_app = true;
    if (rr.counts[static_cast<unsigned>(Manifestation::kMpiDetected)] > 0)
      any_mpi = true;
  }

  util::Table t("Fault Injection Results (" + result.app + ")");
  std::vector<std::string> head = {"Region",    "Executions", "Errors (%)",
                                   "±95% (pts)", "Crash",     "Hang",
                                   "Incorrect"};
  if (any_app) head.push_back("App Detected");
  if (any_mpi) head.push_back("MPI Detected");
  t.header(std::move(head));

  auto share = [](const RegionResult& rr, Manifestation m) {
    const int e = rr.errors();
    if (e == 0) return std::string("-");
    const int c = rr.counts[static_cast<unsigned>(m)];
    if (c == 0) return std::string("-");
    return util::fmt_fixed(100.0 * rr.manifestation_share(m), 0);
  };

  for (const auto& rr : result.regions) {
    std::vector<std::string> cells = {
        region_name(rr.region),
        std::to_string(rr.executions),
        util::fmt_fixed(100.0 * rr.error_rate(), 1),
        rr.executions > 0
            ? util::fmt_fixed(
                  100.0 * wilson_half_width(
                              0.05, static_cast<std::uint64_t>(rr.errors()),
                              static_cast<std::uint64_t>(rr.executions)),
                  1)
            : std::string("-"),
        share(rr, Manifestation::kCrash),
        share(rr, Manifestation::kHang),
        share(rr, Manifestation::kIncorrect),
    };
    if (any_app) cells.push_back(share(rr, Manifestation::kAppDetected));
    if (any_mpi) cells.push_back(share(rr, Manifestation::kMpiDetected));
    t.row(std::move(cells));
  }
  std::string out = t.ascii();

  // Footnote: how the crashes break down by signal (the paper identifies
  // crashes from MPICH's critical-signal messages on STDERR).
  std::array<int, kNumCrashKinds> totals{};
  int crashes = 0;
  for (const auto& rr : result.regions) {
    for (unsigned k = 0; k < kNumCrashKinds; ++k) totals[k] += rr.crash_kinds[k];
    crashes += rr.counts[static_cast<unsigned>(Manifestation::kCrash)];
  }
  if (crashes > 0) {
    out += "Crash breakdown:";
    for (unsigned k = 1; k < kNumCrashKinds; ++k) {
      if (totals[k] == 0) continue;
      // Separate appends: GCC 12's -Wrestrict misfires on chained
      // temporary-string operator+ at -O2.
      out += " ";
      out += crash_kind_name(static_cast<CrashKind>(k));
      out += " ";
      out += util::fmt_pct(totals[k], crashes);
      out += "%";
    }
    out += "\n";
  }

  // Footnote: how many injections were decided statically, per region.
  int pruned = 0, prunable_execs = 0;
  std::string breakdown;
  for (const auto& rr : result.regions) {
    pruned += rr.pruned;
    if (rr.pruned > 0) {
      if (!breakdown.empty()) breakdown += ", ";
      breakdown += region_name(rr.region);
      breakdown += " ";
      breakdown += std::to_string(rr.pruned);
      prunable_execs += rr.executions;
    }
  }
  if (pruned > 0) {
    out += "Pruned (statically dead targets): ";
    out += std::to_string(pruned);
    out += " of ";
    out += std::to_string(prunable_execs);
    out += " injections classified Correct without resuming (";
    out += breakdown;
    out += ")\n";
  }
  return out;
}

std::string format_activation(const CampaignResult& result) {
  bool any = false;
  for (const auto& rr : result.regions)
    if (rr.act_executions[0] + rr.act_executions[1] > 0) any = true;
  if (!any) return std::string();

  util::Table t("Static Activation Split (" + result.app + ")");
  t.header({"Region", "Live Execs", "Live Errors (%)", "Dead Execs",
            "Dead Errors (%)", "Dead Share (%)"});
  for (const auto& rr : result.regions) {
    const int live = rr.act_executions[RegionResult::kLiveIdx];
    const int dead = rr.act_executions[RegionResult::kDeadIdx];
    if (live + dead == 0) continue;
    auto errors_of = [&](unsigned a) {
      int e = 0;
      for (unsigned m = 1; m < kNumManifestations; ++m)
        e += rr.act_counts[a][m];
      return e;
    };
    const int live_err = errors_of(RegionResult::kLiveIdx);
    const int dead_err = errors_of(RegionResult::kDeadIdx);
    t.row({
        region_name(rr.region),
        std::to_string(live),
        live ? util::fmt_pct(live_err, live) : "-",
        std::to_string(dead),
        dead ? util::fmt_pct(dead_err, dead) : "-",
        util::fmt_pct(dead, live + dead),
    });
  }
  return t.ascii();
}

std::vector<AppActivation> batch_activation(const BatchResult& result) {
  std::vector<AppActivation> rows;
  bool any = false;
  for (const auto& campaign : result.campaigns) {
    AppActivation* row = nullptr;
    for (auto& r : rows)
      if (r.app == campaign.app) row = &r;
    if (!row) {
      rows.push_back(AppActivation{campaign.app, {}, {}});
      row = &rows.back();
    }
    for (const auto& rr : campaign.regions) {
      for (unsigned a = 0; a < 2; ++a) {
        row->executions[a] += rr.act_executions[a];
        for (unsigned m = 1; m < kNumManifestations; ++m)
          row->errors[a] += rr.act_counts[a][m];
        if (rr.act_executions[a] > 0) any = true;
      }
    }
  }
  if (!any) rows.clear();
  return rows;
}

std::string format_batch_activation(const BatchResult& result) {
  const std::vector<AppActivation> rows = batch_activation(result);
  if (rows.empty()) return std::string();

  util::Table t("Batch Activation Summary (all regions)");
  t.header({"App", "Live Execs", "Live Errors (%)", "Dead Execs",
            "Dead Errors (%)", "Dead Share (%)"});
  for (const auto& r : rows) {
    const int live = r.executions[RegionResult::kLiveIdx];
    const int dead = r.executions[RegionResult::kDeadIdx];
    t.row({
        r.app,
        std::to_string(live),
        live ? util::fmt_pct(r.errors[RegionResult::kLiveIdx], live) : "-",
        std::to_string(dead),
        dead ? util::fmt_pct(r.errors[RegionResult::kDeadIdx], dead) : "-",
        live + dead ? util::fmt_pct(dead, live + dead) : "-",
    });
  }
  return t.ascii();
}

std::string format_batch(const BatchResult& result) {
  std::string out;
  for (std::size_t c = 0; c < result.campaigns.size(); ++c) {
    if (c) out += "\n";
    out += format_campaign(result.campaigns[c]);
  }
  if (result.shard.count > 1) {
    out += "\n(shard " + std::to_string(result.shard.index) + "/" +
           std::to_string(result.shard.count) +
           " — partial counts; fold all shards with `fsim merge`)\n";
  }
  return out;
}

}  // namespace fsim::core

// Campaign benchmark (fsim_perfbench). Times fsim's public campaign API from the
// outside: BatchSession construction (setup), then whole run_batch /
// run_adaptive calls. In traced mode it also times each layer a campaign is
// built from (link, dictionaries, analysis, lowering, golden run, World
// build, fault-free engine) around its public entry point, and records one
// span per RunEvent.
//
//   fsim_perfbench --workload=batch3-full|msg3-pool|adaptive-ci05
//                  --seed=N --seconds=S --trace=0|1 --work=DIR
//                  [--size=full|tiny]
//
// Prints one JSON document of raw samples on stdout; perfbench/run.py turns
// it into the benchmark's metrics and checks the digests. Working files
// (checkpoint sidecars, the span file of a traced run) go under --work.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/adaptive.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/dictionary.hpp"
#include "core/report.hpp"
#include "core/run.hpp"
#include "simmpi/world.hpp"
#include "svm/analysis/analysis.hpp"
#include "svm/exec/compiled.hpp"
#include "util/cli.hpp"
#include "util/file.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

using namespace fsim;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Workloads ---

const char* const kApps[] = {"wavetoy", "minimd", "atmo"};

struct Workload {
  std::string name;
  std::vector<core::Region> regions;
  int runs = 0;  // per (app, region) cell; the per-cell cap when adaptive
  int jobs = 1;
  bool adaptive = false;
  int wave = 0;  // adaptive only
};

// Every workload runs at jobs=3. The workers share out the grid points, so a
// CPU that the host's other tenants slow does fewer of them: the fewer the
// workers, the more a call times one CPU's neighbours. Three leave a CPU of
// a 4-CPU host for the rest of the process. The traced run adds jobs=1 calls
// for the serial per-run times.
Workload workload_for(const std::string& name, bool tiny) {
  std::vector<core::Region> all;
  for (unsigned r = 0; r < core::kNumRegions; ++r)
    all.push_back(static_cast<core::Region>(r));
  if (name == "batch3-full") return {name, all, tiny ? 4 : 25, 3, false, 0};
  if (name == "msg3-pool")
    return {name, {core::Region::kMessage}, tiny ? 8 : 50, 3, false, 0};
  if (name == "adaptive-ci05")
    return {name, all, tiny ? 20 : 2000, 3, true, tiny ? 10 : 50};
  throw util::SetupError("unknown workload '" + name + "'");
}

std::vector<core::BatchEntry> make_entries(const Workload& w,
                                           std::uint64_t seed) {
  std::vector<core::BatchEntry> entries;
  for (const char* app : kApps) {
    core::BatchEntry e;
    e.app = apps::make_app(app);
    e.config.runs_per_region = w.runs;
    e.config.seed = seed;
    e.config.regions = w.regions;
    e.config.prune = core::PruneLevel::kFull;
    e.config.engine = svm::exec::EngineKind::kThreaded;
    entries.push_back(std::move(e));
  }
  return entries;
}

// --- Trace: spans kept in memory, written out once at the end ---

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0, end_ns = 0;
  long parent = -1;
  long grid_index = -1;  // RunEvent spans only
  // RunEvent attributes.
  int campaign = -1;
  core::Region region{};
  bool pruned = false;
  bool timed = true;  // false: the gap also covers the call's setup
  std::uint64_t instr = 0, injected_at = 0;
  // Probe attribute (which app a layer probe ran on).
  const char* app = nullptr;
};

class Trace {
 public:
  // `capacity` is reserved up front so recording does not reallocate during
  // a call: World construction cost depends on the heap's state, and a
  // growing span buffer would change it under the calls it traces.
  explicit Trace(std::size_t capacity) { spans_.reserve(capacity); }

  long open(const char* name, long parent, const char* app = nullptr) {
    Span s;
    s.name = name;
    s.parent = parent;
    s.app = app;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<long>(spans_.size()) - 1;
  }
  /// Ends span `id`; returns its duration in seconds.
  double close(long id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return seconds_between(s.start_ns, s.end_ns);
  }
  void add(const Span& s) { spans_.push_back(s); }
  const Span& at(long id) const { return spans_[static_cast<std::size_t>(id)]; }

  void write(const std::string& path) const {
    std::string out;
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                    "\"end_ns\":%lld,\"parent\":%ld",
                    i, s.name, static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns), s.parent);
      out += buf;
      if (s.app) out += std::string(",\"app\":\"") + s.app + "\"";
      if (s.grid_index >= 0) {
        std::snprintf(buf, sizeof buf,
                      ",\"grid_index\":%ld,\"app\":\"%s\",\"region\":\"%s\","
                      "\"pruned\":%s,\"timed\":%s,\"instr\":%llu,"
                      "\"injected_at\":%llu",
                      s.grid_index, kApps[s.campaign],
                      core::region_token(s.region), s.pruned ? "true" : "false",
                      s.timed ? "true" : "false",
                      static_cast<unsigned long long>(s.instr),
                      static_cast<unsigned long long>(s.injected_at));
        out += buf;
      }
      out += "}\n";
    }
    util::write_file_atomic(path, out);
  }

 private:
  std::vector<Span> spans_;
};

/// One span per RunEvent: the gap since the previous event (or checkpoint
/// write) on the same thread, under `parent`. The thread is the pool worker
/// that ran the point (or the caller's thread at jobs=1), so at any job count
/// a gap is one run's time. The first gap of a thread in each round also
/// covers what came before the round (the call's own setup, or an adaptive
/// wave barrier), so it is marked untimed. Rounds are adaptive waves
/// (`wave` > 0); a run_batch call is one round.
class Recorder final : public core::CampaignObserver {
 public:
  Recorder(Trace& trace, long parent, int wave)
      : trace_(trace),
        parent_(parent),
        start_ns_(trace.at(parent).start_ns),
        latest_ns_(start_ns_),
        wave_(wave) {}

  void on_run_done(const core::RunEvent& ev) override {
    Lane& lane = lane_of_caller();
    const long round = wave_ > 0 ? ev.run_index / wave_ : 0;
    Span s;
    s.name = "core.run";
    s.start_ns = lane.last_ns;
    s.end_ns = lane.last_ns = latest_ns_ = now_ns();
    s.parent = parent_;
    s.grid_index = static_cast<long>(ev.grid_index);
    s.campaign = static_cast<int>(ev.campaign);
    s.region = ev.region;
    s.pruned = ev.outcome->pruned;
    s.timed = lane.round == round;
    lane.round = round;
    s.instr = ev.outcome->instructions;
    s.injected_at = ev.outcome->injected_at;
    trace_.add(s);
  }

  // A periodic write follows the on_run_done of the run that triggered it,
  // on the same thread; the final one comes from the caller's thread after
  // the last run. Either way it starts where the last hook ended, and is
  // kept out of the calling thread's next run span.
  void on_checkpoint(const std::string& path, int completed_runs) override {
    (void)path, (void)completed_runs;
    Lane& lane = lane_of_caller();
    Span s;
    s.name = "core.ckpt_write";
    s.start_ns = latest_ns_;
    s.end_ns = lane.last_ns = latest_ns_ = now_ns();
    s.parent = parent_;
    trace_.add(s);
    ++checkpoint_writes_;
  }

  int checkpoint_writes() const noexcept { return checkpoint_writes_; }

 private:
  struct Lane {
    std::int64_t last_ns = 0;
    long round = -1;
  };

  /// The calling thread's lane; hooks are serialized, so no locking.
  Lane& lane_of_caller() {
    const auto i = static_cast<std::size_t>(
        util::ThreadPool::current_worker() + 1);
    if (i >= lanes_.size())
      lanes_.resize(i + 1, Lane{start_ns_, -1});
    return lanes_[i];
  }

  Trace& trace_;
  long parent_;
  std::int64_t start_ns_;
  std::int64_t latest_ns_;  // end of the last hook on any thread
  int wave_;
  std::vector<Lane> lanes_;
  int checkpoint_writes_ = 0;
};

// --- One whole run_batch / run_adaptive call ---

struct Execution {
  const char* mode = "";
  int jobs = 1;
  double seconds = 0;
  std::uint64_t attempted = 0;  // grid points scheduled
  std::uint64_t completed = 0;  // grid points executed
  std::uint64_t outcome_digest = 0, batch_digest = 0, total_runs = 0;
  std::string error;
  core::BatchResult batch;
};

std::uint64_t grid_points(const Workload& w) {
  return static_cast<std::uint64_t>(std::size(kApps)) * w.regions.size() *
         static_cast<std::uint64_t>(w.runs);
}

Execution execute(const Workload& w,
                  const std::vector<core::BatchEntry>& entries, int jobs,
                  core::CampaignObserver* observer, const std::string& ckpt,
                  const char* mode) {
  Execution ex;
  ex.mode = mode;
  ex.jobs = jobs;
  std::filesystem::remove(ckpt);
  const std::int64_t t0 = now_ns();
  try {
    if (w.adaptive) {
      core::AdaptiveConfig ac;
      ac.jobs = jobs;
      ac.observer = observer;
      ac.policy.ci = 0.05;
      ac.policy.wave = w.wave;
      ac.checkpoint_path = ckpt;
      ac.checkpoint_every = 16;
      ac.checkpoint_encoding = core::CheckpointEncoding::kBinary;
      core::AdaptiveResult r = core::run_adaptive(entries, ac);
      ex.seconds = seconds_between(t0, now_ns());
      ex.attempted = ex.total_runs = r.total_runs;
      ex.batch = std::move(r.batch);
    } else {
      core::BatchConfig bc;
      bc.jobs = jobs;
      bc.observer = observer;
      ex.batch = core::run_batch(entries, bc);
      ex.seconds = seconds_between(t0, now_ns());
      ex.attempted = ex.total_runs = grid_points(w);
    }
    for (const auto& c : ex.batch.campaigns)
      for (const auto& rr : c.regions)
        ex.completed += static_cast<std::uint64_t>(rr.executions);
    ex.outcome_digest = core::outcome_digest(ex.batch);
    ex.batch_digest = core::batch_digest(ex.batch);
  } catch (const std::exception& e) {
    ex.seconds = seconds_between(t0, now_ns());
    ex.attempted = grid_points(w);
    ex.error = e.what();
  }
  return ex;
}

double time_setup(const std::vector<core::BatchEntry>& entries, int jobs) {
  const std::int64_t t0 = now_ns();
  core::BatchSession session(entries, jobs);
  return seconds_between(t0, now_ns());  // teardown is not setup
}

// --- Outside-in layer probes (traced run only) ---

struct SetupProbes {
  double link_ms = 0, dictionary_ms = 0, analysis_ms = 0, lower_ms = 0,
         golden_ms = 0;
};

/// An app as the setup probe left it, for the World probes.
struct LinkedApp {
  const core::BatchEntry* entry = nullptr;
  svm::Program program;
  std::shared_ptr<const svm::exec::CompiledProgram> compiled;
};

/// Times each setup layer around its public call, in prepare_campaign's
/// order; per-app medians over `reps`, summed over the workload's apps.
SetupProbes probe_setup(const std::vector<core::BatchEntry>& entries,
                        std::uint64_t seed, int reps, Trace& trace,
                        long parent, std::vector<LinkedApp>& linked) {
  SetupProbes p;
  // Filled in place: a CompiledProgram points at its Program, which must
  // therefore never move.
  linked = std::vector<LinkedApp>(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::BatchEntry& e = entries[i];
    LinkedApp& la = linked[i];
    la.entry = &e;
    std::vector<double> link, dict, analysis, lower, golden;
    for (int r = 0; r < reps; ++r) {
      const long root = trace.open("probe.setup", parent, e.app.name.c_str());
      long s = trace.open("apps.link", root);
      la.program = e.app.link();
      link.push_back(trace.close(s));

      s = trace.open("core.dictionary", root);
      util::Rng rng(util::hash_seed({seed, 0xd1c7}));
      for (core::Region region :
           {core::Region::kText, core::Region::kData, core::Region::kBss}) {
        const core::FaultDictionary dictionary(la.program, region, rng,
                                               e.config.dictionary_entries);
      }
      dict.push_back(trace.close(s));

      s = trace.open("svm.analysis", root);
      const svm::analysis::ProgramAnalysis pa(la.program);
      analysis.push_back(trace.close(s));

      s = trace.open("svm.lower", root);
      la.compiled = std::make_shared<const svm::exec::CompiledProgram>(
          la.program, pa.cfg());
      lower.push_back(trace.close(s));

      s = trace.open("core.golden", root);
      core::run_golden(e.app, la.program, 1, e.config.engine, la.compiled);
      golden.push_back(trace.close(s));
      trace.close(root);
    }
    p.link_ms += 1e3 * median(link);
    p.dictionary_ms += 1e3 * median(dict);
    p.analysis_ms += 1e3 * median(analysis);
    p.lower_ms += 1e3 * median(lower);
    p.golden_ms += 1e3 * median(golden);
  }
  return p;
}

/// The World lifecycle every injected run pays, fault-free: construct, run
/// to completion, destroy. World build is construct + destroy; engine
/// throughput is instructions / run time. Per-app medians over `reps`.
/// Run after the campaign calls: the allocator is then in the state a
/// campaign's runs see (a cold heap makes construction several times
/// dearer than it is inside a campaign).
void probe_worlds(const std::vector<LinkedApp>& linked, int reps,
                  Trace& trace, long parent, std::vector<double>& build_ms,
                  std::vector<double>& engine_minstr_per_s) {
  for (const LinkedApp& la : linked) {
    const core::BatchEntry& e = *la.entry;
    const char* app = e.app.name.c_str();
    // run_injected's World options.
    simmpi::WorldOptions opts = e.app.world;
    opts.seed = 1;
    opts.machine.engine = e.config.engine;
    opts.machine.compiled = la.compiled;
    std::vector<double> build, engine;
    for (int k = 0; k < reps; ++k) {
      const long up = trace.open("simmpi.world_build", parent, app);
      auto world = std::make_unique<simmpi::World>(la.program, opts);
      const double up_s = trace.close(up);
      const long run = trace.open("svm.engine_run", parent, app);
      const simmpi::JobStatus status = world->run(4'000'000'000ull);
      const double run_s = trace.close(run);
      const auto instr = static_cast<double>(world->global_instructions());
      const long down = trace.open("simmpi.world_teardown", parent, app);
      world.reset();
      build.push_back(up_s + trace.close(down));
      if (status != simmpi::JobStatus::kCompleted)
        throw util::SetupError(std::string("fault-free run of ") + app +
                               " did not complete");
      engine.push_back(instr / 1e6 / run_s);
    }
    build_ms.push_back(1e3 * median(build));
    engine_minstr_per_s.push_back(median(engine));
  }
}

// --- Output ---

void write_execution(util::JsonWriter& j, const Execution& ex) {
  j.begin_object();
  j.key("mode").value(ex.mode);
  j.key("jobs").value(ex.jobs);
  j.key("seconds").value(ex.seconds);
  j.key("attempted").value(ex.attempted);
  j.key("completed").value(ex.completed);
  j.key("outcome_digest").value(std::to_string(ex.outcome_digest));
  j.key("batch_digest").value(std::to_string(ex.batch_digest));
  j.key("total_runs").value(ex.total_runs);
  j.key("error").value(ex.error);
  j.end_object();
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
}

}  // namespace

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  const std::string size = cli.str("size", "full");
  const Workload w = workload_for(cli.str("workload", ""), size == "tiny");
  const auto seed = static_cast<std::uint64_t>(cli.num("seed", 1));
  const double seconds = cli.real("seconds", 10);
  const bool traced = cli.num("trace", 0) != 0;
  const std::string work = cli.str("work", "");
  if (size != "full" && size != "tiny")
    throw util::SetupError("--size must be full or tiny");
  if (work.empty()) throw util::SetupError("--work=DIR is required");
  if (!cli.unused().empty())
    throw util::SetupError("unknown option --" + cli.unused().front());
  std::filesystem::create_directories(work);
  const std::string tag = w.name + "-" + std::to_string(seed);
  const std::string ckpt = work + "/ckpt-" + tag + ".json";

  const std::int64_t start = now_ns();
  auto elapsed = [&] { return seconds_between(start, now_ns()); };
  const std::vector<core::BatchEntry> entries = make_entries(w, seed);

  util::JsonWriter j;
  j.begin_object();
  j.key("workload").value(w.name);
  j.key("size").value(size);
  j.key("seed").value(seed);
  j.key("jobs").value(w.jobs);
  j.key("trace").value(traced);

  Trace trace(traced ? 1 << 16 : 0);
  SetupProbes setup_probes;
  std::vector<LinkedApp> linked;
  if (traced) {
    const long root = trace.open("probe", -1);
    setup_probes = probe_setup(entries, seed, size == "tiny" ? 1 : 3, trace,
                               root, linked);
    trace.close(root);
  }

  // The first sessions in a process run on a cold heap and caches and take
  // several times longer; they warm up and are not sampled.
  for (int r = 0; r < 3; ++r) (void)time_setup(entries, w.jobs);
  std::vector<double> setup;

  std::vector<Execution> execs;
  // A call under a Recorder; returns its checkpoint-write count.
  auto traced_call = [&](const char* span, int jobs, const char* mode) {
    const long id = trace.open(span, -1);
    Recorder rec(trace, id, w.adaptive ? w.wave : 0);
    execs.push_back(execute(w, entries, jobs, &rec, ckpt, mode));
    trace.close(id);
    return rec.checkpoint_writes();
  };

  // Closed-loop rounds until the time is spent (at least one), each an
  // untraced call and setup samples. A traced round adds a traced call at
  // the workload's job count and one at jobs=1; interleaving them keeps the
  // host's speed drift out of their ratios.
  int ckpt_writes = -1;
  // A round starts only if a round of median length still fits. Guessing by
  // the longest round, one slow call cost an adaptive run one of its few.
  std::vector<double> rounds;
  do {
    const double t0 = elapsed();
    execs.push_back(execute(w, entries, w.jobs, nullptr, ckpt, "untraced"));
    // Setup samples fill about a twentieth of the call's time, and at least
    // three, so a workload of few long calls still gets many samples.
    double sampled = 0;
    for (int r = 0; r < 3 || sampled < 0.05 * execs.back().seconds; ++r) {
      setup.push_back(time_setup(entries, w.jobs));
      sampled += setup.back();
    }
    if (traced) {
      traced_call("exec.traced", w.jobs, "traced");
      const int writes = traced_call("exec.serial", 1, "serial");
      if (ckpt_writes < 0) ckpt_writes = writes;
    }
    rounds.push_back(elapsed() - t0);
  } while (elapsed() + median(rounds) <= seconds);

  if (traced) {
    const core::BatchResult& batch = execs.back().batch;

    std::vector<double> world_build_ms, engine_minstr_per_s;
    const long root = trace.open("probe", -1);
    probe_worlds(linked, size == "tiny" ? 2 : 15, trace, root, world_build_ms,
                 engine_minstr_per_s);
    trace.close(root);

    std::vector<double> report;
    for (int r = 0; r < 5 && execs.back().error.empty(); ++r) {
      const long s = trace.open("core.report", -1);
      const std::string doc = core::batch_json(batch);
      (void)core::outcome_digest(batch);
      report.push_back(trace.close(s));
    }

    std::uint64_t rx_bytes = 0;
    for (const auto& c : batch.campaigns)
      for (std::uint64_t b : c.golden.rx_bytes) rx_bytes += b;

    double ckpt_bytes = 0, ckpt_ms = 0;
    if (w.adaptive && execs.back().error.empty()) {
      const std::string text = util::read_file(ckpt);
      ckpt_bytes = static_cast<double>(text.size());
      const core::Checkpoint cp = core::parse_checkpoint_json(text);
      std::vector<double> ser;
      std::string out;
      for (int r = 0; r < 5; ++r) {
        const long s = trace.open("core.ckpt_serialize", -1);
        out = core::checkpoint_serialize(cp, core::CheckpointEncoding::kBinary);
        ser.push_back(trace.close(s));
      }
      if (core::checkpoint_digest(core::parse_checkpoint_json(out)) !=
          core::checkpoint_digest(cp))
        throw util::SetupError("checkpoint does not round-trip");
      ckpt_ms = 1e3 * median(ser);
    }

    const std::string spans = work + "/spans-" + tag + ".jsonl";
    trace.write(spans);
    j.key("spans_file").value(spans);
    j.key("probes").begin_object();
    j.key("apps.link_ms").value(setup_probes.link_ms);
    j.key("core.dictionary_ms").value(setup_probes.dictionary_ms);
    j.key("svm.analysis_ms").value(setup_probes.analysis_ms);
    j.key("svm.lower_ms").value(setup_probes.lower_ms);
    j.key("core.golden_ms").value(setup_probes.golden_ms);
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
      j.key(std::string("simmpi.world_build_ms.") + kApps[a])
          .value(world_build_ms[a]);
      j.key(std::string("svm.engine_minstr_per_s.") + kApps[a])
          .value(engine_minstr_per_s[a]);
    }
    j.key("core.report_ms").value(1e3 * median(report));
    j.key("core.ckpt_writes").value(ckpt_writes);
    j.key("core.ckpt_bytes").value(ckpt_bytes);
    j.key("core.ckpt_serialize_ms").value(ckpt_ms);
    j.key("simmpi.golden_rx_bytes").value(rx_bytes);
    j.end_object();
  }
  std::filesystem::remove(ckpt);

  j.key("setup_s").begin_array();
  for (double s : setup) j.value(s);
  j.end_array();
  j.key("executions").begin_array();
  for (const Execution& ex : execs) write_execution(j, ex);
  j.end_array();
  j.key("peak_rss_kb").value(peak_rss_kb());
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fsim_perfbench: %s\n", e.what());
  return 2;
}

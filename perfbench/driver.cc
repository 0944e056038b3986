/**
 * @file
 * perfbench driver: runs one of the repo benchmark's workloads through
 * the imli library's public entry points (runSuite, runSweep,
 * PipelineSimulator, TraceCorpus::open), checks what they produce, and
 * writes the raw measurements as one JSON object to --out.  run.py
 * builds this binary, derives the benchmark's metrics from that file
 * and compares the output file against the recorded reference.
 *
 * Untimed set-up, timed phase, checks:
 *
 *   setup x K    clear the decoded-trace cache, select and validate the
 *                corpus, fingerprint and open every stream (recorded
 *                traces decode into the cache), construct every cell's
 *                predictor; the last round leaves the cache warm for the
 *                timed phase
 *   timed        whole workload passes at the workload's job count until
 *                --seconds have elapsed (at least one pass)
 *   checks       every pass equals the first; every config of a
 *                benchmark saw the same conditional and instruction
 *                counts; a seed-chosen subset rerun at another job count
 *                equals the timed pass (skipped with --subset-check 0)
 *
 * K is --setup-rounds (default 9).  run.py spreads one timed run over
 * several driver processes and pools their passes.
 *
 * Traced mode (--trace 1) replaces the timed phase with serial passes
 * whose calls into each layer are timed from outside: every predictor is
 * wrapped in a forwarding TimedPredictor, every stream in a TimedSource,
 * and a component replay pushes each cell's stream through the
 * standalone history / TAGE / corrector / IMLI layers.  The traced pass
 * must reproduce the untraced results exactly; its wall time against the
 * untraced serial pass is the tracing overhead.  Per-(cell, layer) spans
 * stay in memory and are written at exit as Perfetto-loadable trace
 * events (obs::TraceEventWriter).
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/imli_components.hh"
#include "src/corpus/trace_corpus.hh"
#include "src/dse/param_space.hh"
#include "src/dse/pareto.hh"
#include "src/dse/sweep.hh"
#include "src/history/history_manager.hh"
#include "src/obs/trace_event.hh"
#include "src/predictors/host_speculation.hh"
#include "src/predictors/statistical_corrector.hh"
#include "src/predictors/tage.hh"
#include "src/predictors/tage_gsc.hh"
#include "src/predictors/zoo.hh"
#include "src/sim/pipeline_simulator.hh"
#include "src/sim/report.hh"
#include "src/sim/simulator.hh"
#include "src/sim/suite_runner.hh"
#include "src/util/cli.hh"
#include "src/util/hashing.hh"
#include "src/util/thread_pool.hh"

using namespace imli;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** User + system CPU seconds of every thread of this process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Restart the resident-set high-water mark (Linux clear_refs "5"), so
 *  each pass reports its own peak.  Where the kernel refuses, the peak
 *  stays the process's lifetime peak. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Resident-set high-water mark in KiB (VmHWM, else ru_maxrss). */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

#if defined(__clang__)
const char *const kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
const char *const kCompiler = "gcc " __VERSION__;
#else
const char *const kCompiler = "unknown";
#endif

/** The seed the reference outputs were recorded at: every generated
 *  benchmark keeps the suite's own seed. */
constexpr std::uint64_t kReferenceSeed = 1;

/** Set-up rounds per process unless --setup-rounds says otherwise;
 *  setup_s is the median round. */
constexpr std::size_t kSetupRounds = 9;

/** Benchmarks rerun at another job count by the subset check. */
constexpr std::size_t kSubsetBenchmarks = 4;

// ---------------------------------------------------------------------------
// Workload description (everything comes from the command line; run.py
// holds the workload table).
// ---------------------------------------------------------------------------

struct Workload
{
    bool sweep = false;
    CorpusQuery query;
    std::vector<std::string> configs;  //!< suite configs or sweep points
    std::size_t branches = 200000;
    unsigned delay = 0;
    unsigned jobs = 1;
    std::uint64_t seed = kReferenceSeed;
    std::size_t copies = 1;  //!< draws of every generated stream
    fs::path work;
};

Workload
parseWorkload(const CommandLine &cli)
{
    Workload w;
    const std::string mode = cli.getString("mode", "suite");
    if (mode != "suite" && mode != "sweep")
        throw std::runtime_error("--mode must be suite or sweep");
    w.sweep = mode == "sweep";
    w.query.recordedDir = cli.getString("recorded", "");
    w.query.patterns = splitCommaList(cli.getString("benchmarks", ""));
    w.branches = cli.getCount("branches", w.branches);
    w.query.targetBranches = w.branches;
    w.delay = static_cast<unsigned>(cli.getCount("delay", 0));
    w.jobs = ThreadPool::parseJobsStrict(cli.getString("jobs", "1"),
                                         "--jobs");
    w.seed = static_cast<std::uint64_t>(
        cli.getCount("seed", kReferenceSeed));
    w.copies = cli.getCount("copies", 1);
    if (w.copies == 0)
        throw std::runtime_error("--copies must be at least 1");
    w.work = cli.getString("work", "");
    if (w.work.empty())
        throw std::runtime_error("--work DIR is required");
    fs::create_directories(w.work);

    if (w.sweep) {
        ParamSpace space;
        space.baseSpec = cli.getString("base", "tage-gsc+i");
        for (const std::string &dim : cli.getList("dim"))
            space.dimensions.push_back(parseDimension(dim));
        w.configs = space.expandGrid();
        for (const std::string &point : cli.getList("point"))
            w.configs.push_back(canonicalSpec(point));
    } else {
        w.configs = splitSpecList(cli.getString("configs", ""));
    }
    if (w.configs.empty())
        throw std::runtime_error("no configs given");
    return w;
}

/** The workload's corpus at its seed: the reference seed keeps every
 *  benchmark as the suite defines it; any other seed re-draws every
 *  generated stream (recorded traces are fixed files).  With --copies
 *  N, N - 1 further draws of every generated benchmark follow, named
 *  "<name>~2" and up: where a few streams decide a simulated mean, more
 *  draws of them keep it steady from seed to seed. */
std::vector<BenchmarkSpec>
selectCorpus(const Workload &w)
{
    std::vector<BenchmarkSpec> specs = selectSuiteBenchmarks(w.query);
    for (BenchmarkSpec &spec : specs) {
        validateBenchmark(spec);
        if (w.seed != kReferenceSeed &&
            spec.backend == TraceBackend::Generated)
            spec.seed = hashCombine(spec.seed, w.seed);
    }
    const std::size_t n = specs.size();
    for (std::size_t k = 1; k < w.copies; ++k)
        for (std::size_t i = 0; i < n; ++i)
            if (specs[i].backend == TraceBackend::Generated) {
                BenchmarkSpec copy = specs[i];
                copy.name += "~" + std::to_string(k + 1);
                copy.seed = hashCombine(copy.seed, k);
                specs.push_back(copy);
            }
    return specs;
}

/** One set-up round (see the file header); returns its seconds and
 *  leaves the corpus and its content fingerprints in the out-params. */
double
setupOnce(const Workload &w, std::vector<BenchmarkSpec> &benchmarks,
          std::vector<std::uint64_t> &fingerprints)
{
    const auto t0 = Clock::now();
    TraceCorpus::clearStreamCache();
    benchmarks = selectCorpus(w);
    fingerprints.clear();
    for (const BenchmarkSpec &spec : benchmarks) {
        fingerprints.push_back(TraceCorpus::fingerprint(spec, w.branches));
        (void)TraceCorpus::open(spec, w.branches);
        for (const std::string &config : w.configs)
            (void)makePredictor(config);
    }
    return since(t0);
}

// ---------------------------------------------------------------------------
// One whole-workload pass through the public entry points.
// ---------------------------------------------------------------------------

struct Cell
{
    std::string benchmark;
    std::string config;
    std::uint64_t mispredictions = 0;
    std::uint64_t conditionals = 0;
    std::uint64_t instructions = 0;

    bool
    sameCounts(const Cell &o) const
    {
        return benchmark == o.benchmark && config == o.config &&
               mispredictions == o.mispredictions &&
               conditionals == o.conditionals &&
               instructions == o.instructions;
    }
};

struct Pass
{
    std::vector<Cell> cells;  //!< benchmark-major, config-minor
    std::map<std::string, double> configMpki;  //!< mean over benchmarks
    std::vector<double> benchSeconds;  //!< per benchmark, declared order
    double wall = 0.0;
    double cpu = 0.0;
    long peakRssKb = 0;
    std::uint64_t conditionals = 0;
};

std::vector<double>
readSidecarSeconds(const fs::path &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    std::vector<double> out;
    while (std::getline(in, line)) {
        const std::size_t a = line.find(',');
        const std::size_t b = line.find(',', a + 1);
        if (a == std::string::npos || b == std::string::npos)
            throw std::runtime_error("malformed timing sidecar row: " + line);
        out.push_back(std::stod(line.substr(a + 1, b - a - 1)));
    }
    return out;
}

/**
 * Run @p benchmarks once at @p jobs.  Suite workloads go through
 * runSuite; sweep workloads through runSweep into a fresh journal at
 * @p journal, then the journal is loaded back and Pareto-aggregated
 * (both inside the timed span: that is the sweep a user runs).  When
 * @p output is non-empty the canonical output (the cells CSV, or the
 * journal) is left there for the reference comparison.
 */
Pass
runPass(const Workload &w, const std::vector<BenchmarkSpec> &benchmarks,
        unsigned jobs, const fs::path &journal, const fs::path &output)
{
    Pass p;
    resetPeakRss();
    if (!w.sweep) {
        SuiteRunOptions o;
        o.branchesPerTrace = w.branches;
        o.jobs = jobs;
        o.sim.updateDelay = w.delay;
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        const SuiteResults r = runSuite(benchmarks, w.configs, o);
        p.wall = since(t0);
        p.cpu = cpuSeconds() - c0;
        for (const SuiteCell &c : r.cells)
            p.cells.push_back({c.benchmark, c.config, c.mispredictions,
                               c.conditionals, c.instructions});
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            p.benchSeconds.push_back(r.cells[b * w.configs.size()].seconds);
        for (const std::string &config : w.configs)
            p.configMpki[config] = r.averageMpki(config);
        if (!output.empty()) {
            std::ofstream out(output, std::ios::binary);
            printCellsCsv(out, r);
            if (!out)
                throw std::runtime_error("cannot write " + output.string());
        }
    } else {
        const fs::path sidecar = journal.string() + ".timing";
        fs::remove(journal);
        fs::remove(sidecar);
        SweepOptions o;
        o.branchesPerTrace = w.branches;
        o.jobs = jobs;
        o.sim.updateDelay = w.delay;
        o.journalPath = journal.string();
        o.timingSidecarPath = sidecar.string();
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        const SweepResults r = runSweep(benchmarks, w.configs, o);
        std::vector<ParetoEntry> entries =
            aggregateCells(loadJournal(o.journalPath));
        markDominated(entries);
        p.wall = since(t0);
        p.cpu = cpuSeconds() - c0;
        for (const SweepCell &c : r.cells)
            p.cells.push_back({c.benchmark, c.spec, c.mispredictions,
                               c.conditionals, c.instructions});
        p.benchSeconds = readSidecarSeconds(sidecar);
        for (const std::string &config : w.configs)
            p.configMpki[config] = r.averageMpki(config);
        if (!output.empty())
            fs::copy_file(journal, output,
                          fs::copy_options::overwrite_existing);
    }
    p.peakRssKb = peakRssKb();
    for (const Cell &c : p.cells)
        p.conditionals += c.conditionals;
    return p;
}

// ---------------------------------------------------------------------------
// Checks.  Each counts a failure per failing cell and keeps a short message
// for the first few.
// ---------------------------------------------------------------------------

/** Cell results produced, and those that failed a check. */
struct CheckLog
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (messages.size() < 20)
            messages.push_back(what);
    }
};

/** @p got must equal @p want cell for cell. */
void
checkEqual(const std::vector<Cell> &want, const std::vector<Cell> &got,
           const std::string &what, CheckLog &log)
{
    if (want.size() != got.size()) {
        for (std::size_t i = 0; i < want.size(); ++i)
            log.fail(what + ": " + std::to_string(got.size()) +
                     " cells instead of " + std::to_string(want.size()));
        return;
    }
    for (std::size_t i = 0; i < want.size(); ++i)
        if (!want[i].sameCounts(got[i]))
            log.fail(what + ": " + want[i].benchmark + " / " +
                     want[i].config + " differs");
}

/** Every config of a benchmark replays one stream, so all must see the
 *  same conditional and instruction counts. */
void
checkCountsAcrossConfigs(const std::vector<Cell> &cells,
                         std::size_t nconfigs, CheckLog &log)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &first = cells[i - i % nconfigs];
        if (cells[i].conditionals != first.conditionals ||
            cells[i].instructions != first.instructions)
            log.fail("counts differ across configs: " + cells[i].benchmark +
                     " / " + cells[i].config);
    }
}

/** Seed-chosen benchmark subset, in declared order. */
std::vector<std::size_t>
subsetIndices(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> picked;
    std::uint64_t h = seed;
    while (picked.size() < std::min(n, kSubsetBenchmarks)) {
        h = mix64(h + 0x9e3779b97f4a7c15ULL);
        const std::size_t i = static_cast<std::size_t>(h % n);
        if (std::find(picked.begin(), picked.end(), i) == picked.end())
            picked.push_back(i);
    }
    std::sort(picked.begin(), picked.end());
    return picked;
}

/** The cells of benchmarks @p picked, cut out of a whole-workload pass. */
std::vector<Cell>
cellsOf(const std::vector<Cell> &cells, std::size_t nconfigs,
        const std::vector<std::size_t> &picked)
{
    std::vector<Cell> out;
    for (std::size_t b : picked)
        out.insert(out.end(), cells.begin() + b * nconfigs,
                   cells.begin() + (b + 1) * nconfigs);
    return out;
}

/** A job count other than @p jobs, for the jobs-N == jobs-1 check. */
unsigned
otherJobs(unsigned jobs)
{
    if (jobs != 1)
        return 1;
    return std::max(2u, std::min(4u, ThreadPool::hardwareThreads()));
}

// ---------------------------------------------------------------------------
// Traced mode: timing decorators, replay, spans.
// ---------------------------------------------------------------------------

/** Time spent in one kind of call.  @c segments counts the timed
 *  intervals, each of which carries one clock read of overhead. */
struct Span
{
    std::uint64_t calls = 0;
    std::uint64_t segments = 0;
    double seconds = 0.0;

    void
    add(double s, std::uint64_t segs = 1, std::uint64_t n = 1)
    {
        calls += n;
        segments += segs;
        seconds += s;
    }

    Span &
    operator+=(const Span &o)
    {
        calls += o.calls;
        segments += o.segments;
        seconds += o.seconds;
        return *this;
    }
};

enum Op
{
    kPredict,
    kUpdate,
    kTrack,
    kSpeculate,
    kCheckpoint,
    kRestore,
    kOps
};

const char *const kOpNames[kOps] = {"predict",   "update",     "track",
                                    "speculate", "checkpoint", "restore"};

/** Calls into one predictor, plus the history distance its restores
 *  walked (global-history head positions apart). */
struct CallLedger
{
    std::array<Span, kOps> ops;
    std::uint64_t restoreDistance = 0;
};

/** Forwarding decorator that times every speculation-contract call. */
class TimedPredictor final : public ConditionalPredictor
{
  public:
    TimedPredictor(PredictorPtr inner, CallLedger &ledger)
        : inner(std::move(inner)), ledger(ledger)
    {
    }

    bool
    predict(std::uint64_t pc) override
    {
        const auto t0 = Clock::now();
        const bool taken = inner->predict(pc);
        charge(kPredict, t0);
        return taken;
    }

    void
    update(std::uint64_t pc, bool taken, std::uint64_t target) override
    {
        const auto t0 = Clock::now();
        inner->update(pc, taken, target);
        charge(kUpdate, t0);
    }

    void
    trackOtherInst(std::uint64_t pc, BranchType type, bool taken,
                   std::uint64_t target) override
    {
        const auto t0 = Clock::now();
        inner->trackOtherInst(pc, type, taken, target);
        charge(kTrack, t0);
    }

    void prefetch(std::uint64_t pc) const override { inner->prefetch(pc); }

    bool
    supportsSpeculation() const override
    {
        return inner->supportsSpeculation();
    }

    void
    prepareSpeculation(unsigned max_inflight) override
    {
        inner->prepareSpeculation(max_inflight);
    }

    SpecCheckpoint
    checkpoint() const override
    {
        const auto t0 = Clock::now();
        const SpecCheckpoint cp = inner->checkpoint();
        charge(kCheckpoint, t0);
        return cp;
    }

    void
    restore(const SpecCheckpoint &cp) override
    {
        // Untimed probe of where the history head is now.
        const std::uint64_t head = inner->checkpoint().global.head;
        ledger.restoreDistance += head > cp.global.head
                                      ? head - cp.global.head
                                      : cp.global.head - head;
        const auto t0 = Clock::now();
        inner->restore(cp);
        charge(kRestore, t0);
    }

    void
    speculate(std::uint64_t pc, bool pred_taken,
              std::uint64_t target) override
    {
        const auto t0 = Clock::now();
        inner->speculate(pc, pred_taken, target);
        charge(kSpeculate, t0);
    }

    void squashSpeculation() override { inner->squashSpeculation(); }
    std::uint64_t stateDigest() const override
    {
        return inner->stateDigest();
    }
    void attachProbes(obs::MetricsScope &scope) override
    {
        inner->attachProbes(scope);
    }
    std::string name() const override { return inner->name(); }
    StorageAccount storage() const override { return inner->storage(); }

  private:
    void
    charge(Op op, Clock::time_point t0) const
    {
        ledger.ops[op].add(since(t0));
    }

    PredictorPtr inner;
    CallLedger &ledger;
};

/** Records served by a stream and the time spent producing them. */
struct SourceLedger
{
    Span chunks;
    std::uint64_t records = 0;
};

/** Forwarding BranchSource that times nextChunk(). */
class TimedSource final : public BranchSource
{
  public:
    TimedSource(std::unique_ptr<BranchSource> inner, SourceLedger &ledger)
        : inner(std::move(inner)), ledger(ledger)
    {
    }

    const std::string &name() const override { return inner->name(); }

    BranchSpan
    nextChunk() override
    {
        const auto t0 = Clock::now();
        const BranchSpan span = inner->nextChunk();
        ledger.chunks.add(since(t0));
        ledger.records += span.count;
        return span;
    }

    void reset() override { inner->reset(); }

  private:
    std::unique_ptr<BranchSource> inner;
    SourceLedger &ledger;
};

/** Standalone-layer time of one cell's component replay. */
struct ReplayLedger
{
    Span push;   //!< HistoryManager::push (every record)
    Span tage;   //!< TagePredictor::predict + update
    Span sc;     //!< StatisticalCorrector::decide + train (bias + GSC)
    Span imli;   //!< ImliComponents::fillContext + onResolved
    Span sicOh;  //!< SIC/OH vote + update + onResolved
    unsigned folds = 0;

    ReplayLedger &
    operator+=(const ReplayLedger &o)
    {
        push += o.push;
        tage += o.tage;
        sc += o.sc;
        imli += o.imli;
        sicOh += o.sicOh;
        folds = std::max(folds, o.folds);
        return *this;
    }
};

/** Keeps the replay's SIC/OH votes observable to the optimiser. */
volatile long voteSink = 0;

/** True for configs the component replay can rebuild layer by layer:
 *  TAGE-GSC hosts with the IMLI components on. */
bool
replayable(const std::string &config)
{
    const ParsedSpec parsed = parseSpec(config);
    return parsed.host == "tage-gsc" &&
           buildTageGscConfig(parsed).enableImli;
}

/** The standalone layers of one TAGE-GSC+I host, wired as
 *  CompositeHost wires them, except that the SIC/OH tables vote beside
 *  the corrector instead of inside it. */
struct HostLayers
{
    explicit HostLayers(const TageGscPredictor::Config &cfg)
        : hist(host_spec::historyCapacity(
              std::max(cfg.tage.maxHistory, cfg.gscGlobal.maxHistory))),
          tage(cfg.tage, hist), bias(cfg.bias), gsc(cfg.gscGlobal, hist),
          corrector(cfg.sc), imli(cfg.imli), sicOh(imli.components())
    {
        corrector.addComponent(&bias);
        corrector.addComponent(&gsc);
    }

    HistoryManager hist;
    TagePredictor tage;
    BiasComponent bias;
    GlobalGehlComponent gsc;
    StatisticalCorrector corrector;
    ImliComponents imli;
    std::vector<ScComponent *> sicOh;
};

/**
 * Push @p spec's stream through standalone copies of the layers a
 * TAGE-GSC+I host composes.  The history push (with the host's folds)
 * and the IMLI upkeep depend only on the records, so each runs alone
 * over every chunk and is timed per chunk.  TAGE, the corrector and the
 * SIC/OH tables need each other's state, so they run composed and each
 * call is timed; those spans carry one clock read per segment, which
 * run.py subtracts.
 */
ReplayLedger
replayCell(const BenchmarkSpec &spec, const std::string &config,
           std::size_t branches)
{
    const TageGscPredictor::Config cfg =
        buildTageGscConfig(parseSpec(config));
    HostLayers host(cfg);
    HostLayers alone(cfg);  // its history and IMLI state run by themselves

    ReplayLedger led;
    led.folds = 3 * static_cast<unsigned>(host.tage.historyLengths().size());
    for (unsigned len : host.gsc.historyLengths())
        led.folds += len > 0 ? 1 : 0;

    long sink = 0;
    const std::unique_ptr<BranchSource> source =
        TraceCorpus::open(spec, branches);
    for (BranchSpan span = source->nextChunk(); !span.empty();
         span = source->nextChunk()) {
        auto t0 = Clock::now();
        for (const BranchRecord &rec : span)
            alone.hist.push(isConditional(rec.type) ? rec.taken : true,
                            rec.pc);
        led.push.add(since(t0), 1, span.count);

        std::uint64_t conditionals = 0;
        t0 = Clock::now();
        for (const BranchRecord &rec : span) {
            if (!isConditional(rec.type))
                continue;
            ScContext ctx;
            alone.imli.fillContext(ctx, rec.pc);
            alone.imli.onResolved(rec.pc, rec.target, rec.taken);
            sink += ctx.imliCount;
            ++conditionals;
        }
        led.imli.add(since(t0), 1, conditionals);

        for (const BranchRecord &rec : span) {
            if (!isConditional(rec.type)) {
                host.hist.push(true, rec.pc);
                continue;
            }
            const auto t0 = Clock::now();
            const TagePredictor::Prediction tp = host.tage.predict(rec.pc);
            const auto t1 = Clock::now();
            ScContext ctx;
            ctx.pc = rec.pc;
            ctx.mainPred = tp.taken;
            host.imli.fillContext(ctx, rec.pc);
            const auto t2 = Clock::now();
            const StatisticalCorrector::Decision d =
                host.corrector.decide(ctx, tp.taken, tp.confidence);
            const auto t3 = Clock::now();
            for (const ScComponent *c : host.sicOh)
                sink += c->vote(ctx);
            const auto t4 = Clock::now();
            host.corrector.train(ctx, rec.taken, d);
            const auto t5 = Clock::now();
            for (ScComponent *c : host.sicOh) {
                c->update(ctx, rec.taken);
                c->onResolved(ctx, rec.taken);
            }
            const auto t6 = Clock::now();
            host.tage.update(rec.pc, rec.taken, d.finalPred);
            const auto t7 = Clock::now();
            host.imli.onResolved(rec.pc, rec.target, rec.taken);
            host.hist.push(rec.taken, rec.pc);
            led.tage.add(seconds(t0, t1) + seconds(t6, t7), 2);
            led.sc.add(seconds(t2, t3) + seconds(t4, t5), 2);
            led.sicOh.add(seconds(t3, t4) + seconds(t5, t6), 2);
        }
    }
    voteSink = sink;
    return led;
}

/** Seconds one clock read costs (median of a few batches); every timed
 *  segment carries about one of these. */
double
clockReadSeconds()
{
    std::vector<double> per;
    for (int batch = 0; batch < 7; ++batch) {
        constexpr int n = 200000;
        const auto t0 = Clock::now();
        Clock::time_point last = t0;
        for (int i = 0; i < n; ++i)
            last = Clock::now();
        per.push_back(seconds(t0, last) / n);
    }
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

struct TracedRun
{
    std::vector<Cell> cells;
    double wall = 0.0;
    Span open;
    SourceLedger source;
    std::array<Span, kOps> ops;
    std::uint64_t restoreDistance = 0;
    PipelineStats pipeline;
    ReplayLedger replay;
    std::uint64_t tableBytes = 0;
    /** Per-(cell, layer) spans, for the trace-event export. */
    struct CellSpan
    {
        std::string cell;
        std::string layer;
        Span span;
    };
    std::vector<CellSpan> spans;
};

/**
 * The serial traced pass: the same cells runSuite / runSweep compute,
 * rebuilt from TraceCorpus::open, zoo predictors wrapped in
 * TimedPredictor, and simulateMany (immediate engine) or one
 * PipelineSimulator per predictor (pipeline engine).
 */
TracedRun
runTraced(const Workload &w, const std::vector<BenchmarkSpec> &benchmarks)
{
    TracedRun t;
    SimOptions base;
    base.updateDelay = w.delay;
    std::vector<SimOptions> opts;
    bool pipeline = false;
    for (const std::string &config : w.configs) {
        opts.push_back(applySpecDelay(parseSpec(config), base));
        pipeline = pipeline || opts.back().usePipeline();
        t.tableBytes = std::max(t.tableBytes,
                                makePredictor(config)->storageBits() / 8);
    }
    for (const SimOptions &o : opts)
        if (o.usePipeline() != pipeline)
            throw std::runtime_error(
                "traced mode needs one engine for every config");

    const auto tRun = Clock::now();
    for (const BenchmarkSpec &spec : benchmarks) {
        SourceLedger srcLedger;
        const auto tOpen = Clock::now();
        std::unique_ptr<BranchSource> raw =
            TraceCorpus::open(spec, w.branches);
        const double openSeconds = since(tOpen);
        t.open.add(openSeconds);
        TimedSource source(std::move(raw), srcLedger);

        std::vector<CallLedger> ledgers(w.configs.size());
        std::vector<PredictorPtr> preds;
        for (std::size_t i = 0; i < w.configs.size(); ++i)
            preds.push_back(std::make_unique<TimedPredictor>(
                makePredictor(w.configs[i]), ledgers[i]));

        std::vector<SimResult> results;
        if (!pipeline) {
            results = simulateMany(preds, source, opts);
        } else {
            std::vector<std::unique_ptr<PipelineSimulator>> sims;
            for (std::size_t i = 0; i < preds.size(); ++i)
                sims.push_back(
                    std::make_unique<PipelineSimulator>(*preds[i], opts[i]));
            for (BranchSpan span = source.nextChunk(); !span.empty();
                 span = source.nextChunk())
                for (auto &sim : sims)
                    for (const BranchRecord &rec : span)
                        sim->onRecord(rec);
            for (auto &sim : sims) {
                sim->drain();
                results.push_back(sim->result());
                t.pipeline.commits += sim->stats().commits;
                t.pipeline.squashes += sim->stats().squashes;
                t.pipeline.replays += sim->stats().replays;
            }
        }

        Span openSpan;
        openSpan.add(openSeconds);
        t.spans.push_back({spec.name, "corpus.open", openSpan});
        t.spans.push_back({spec.name, "trace.next_chunk", srcLedger.chunks});
        t.source.chunks += srcLedger.chunks;
        t.source.records += srcLedger.records;
        for (std::size_t i = 0; i < w.configs.size(); ++i) {
            t.cells.push_back({spec.name, w.configs[i],
                               results[i].mispredictions,
                               results[i].conditionals,
                               results[i].instructions});
            const std::string cell = spec.name + "/" + w.configs[i];
            for (int op = 0; op < kOps; ++op) {
                t.ops[op] += ledgers[i].ops[op];
                if (ledgers[i].ops[op].calls > 0)
                    t.spans.push_back({cell,
                                       std::string("predictors.") +
                                           kOpNames[op],
                                       ledgers[i].ops[op]});
            }
            t.restoreDistance += ledgers[i].restoreDistance;
        }
    }
    t.wall = since(tRun);

    for (const BenchmarkSpec &spec : benchmarks)
        for (const std::string &config : w.configs) {
            if (!replayable(config))
                continue;
            const ReplayLedger led = replayCell(spec, config, w.branches);
            const std::string cell = spec.name + "/" + config;
            t.spans.push_back({cell, "history.push", led.push});
            t.spans.push_back({cell, "predictors.tage", led.tage});
            t.spans.push_back({cell, "predictors.sc", led.sc});
            t.spans.push_back({cell, "core.imli", led.imli});
            t.spans.push_back({cell, "core.sic_oh", led.sicOh});
            t.replay += led;
        }
    return t;
}

struct DseStats
{
    std::size_t cells = 0;
    std::uintmax_t journalBytes = 0;
    double loadSeconds = 0.0;
    double paretoSeconds = 0.0;
    double resumeSeconds = 0.0;
};

/** The dse layer on a completed journal: size, reload, Pareto, and a
 *  rerun that must resume every cell from the journal. */
DseStats
measureDse(const Workload &w, const std::vector<BenchmarkSpec> &benchmarks,
           const fs::path &journal, CheckLog &log)
{
    DseStats d;
    d.journalBytes = fs::file_size(journal);
    auto t0 = Clock::now();
    const std::vector<SweepCell> cells = loadJournal(journal.string());
    d.loadSeconds = since(t0);
    d.cells = cells.size();
    t0 = Clock::now();
    std::vector<ParetoEntry> entries = aggregateCells(cells);
    markDominated(entries);
    d.paretoSeconds = since(t0);

    SweepOptions o;
    o.branchesPerTrace = w.branches;
    o.jobs = w.jobs;
    o.sim.updateDelay = w.delay;
    o.journalPath = journal.string();
    t0 = Clock::now();
    const SweepResults r = runSweep(benchmarks, w.configs, o);
    d.resumeSeconds = since(t0);
    ++log.attempted;
    if (r.simulatedCells != 0)
        log.fail("resume on a complete journal simulated " +
                 std::to_string(r.simulatedCells) + " cells");
    return d;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return os.str();
}

std::string
list(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

std::string
span(const Span &s)
{
    return "{\"calls\": " + std::to_string(s.calls) +
           ", \"segments\": " + std::to_string(s.segments) +
           ", \"seconds\": " + num(s.seconds) + "}";
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/** The spans as trace events, after one event naming the build and run
 *  that produced them. */
void
writeTraceEvents(const fs::path &path, const Workload &w,
                 const TracedRun &t)
{
    std::ofstream out(path, std::ios::binary);
    obs::TraceEventWriter writer(out);
    writer.emit("provenance",
                "\"build_type\": " + quote(PERFBENCH_BUILD_TYPE) +
                    ", \"compiler\": " + quote(kCompiler) +
                    ", \"nproc\": " +
                    std::to_string(ThreadPool::hardwareThreads()) +
                    ", \"jobs\": " + std::to_string(w.jobs) +
                    ", \"seed\": " + std::to_string(w.seed));
    for (const TracedRun::CellSpan &s : t.spans)
        writer.emit(s.layer, "\"cell\": " + quote(s.cell) +
                                 ", \"calls\": " +
                                 std::to_string(s.span.calls) +
                                 ", \"seconds\": " + num(s.span.seconds));
    writer.close();
    if (!out)
        throw std::runtime_error("cannot write " + path.string());
}

} // namespace

int
main(int argc, char **argv)
try {
#ifndef NDEBUG
    std::cerr << "perfbench_driver: built without NDEBUG (a debug build); "
                 "its timings would be meaningless.  Rebuild with "
                 "-DCMAKE_BUILD_TYPE=Release.\n";
    return 3;
#endif
    const CommandLine cli(argc, argv);
    const Workload w = parseWorkload(cli);
    const bool traced = cli.getInt("trace", 0) != 0;
    // run.py spreads one timed run over several processes; only the
    // first makes the subset check.
    const bool subsetCheck = cli.getInt("subset-check", 1) != 0;
    const std::size_t setupRounds = cli.getCount("setup-rounds",
                                                 kSetupRounds);
    if (setupRounds == 0)
        throw std::runtime_error("--setup-rounds must be at least 1");
    const double budget = cli.getDouble("seconds", 10.0);
    const fs::path outPath = cli.getString("out", "");
    if (outPath.empty())
        throw std::runtime_error("--out FILE is required");
    const std::size_t nconf = w.configs.size();
    const fs::path journal = w.work / "journal.csv";
    const fs::path output = w.work / (w.sweep ? "output.journal"
                                              : "output.csv");

    std::vector<BenchmarkSpec> benchmarks;
    std::vector<std::uint64_t> fingerprints;
    std::vector<double> setup;
    for (std::size_t i = 0; i < setupRounds; ++i)
        setup.push_back(setupOnce(w, benchmarks, fingerprints));

    CheckLog log;
    std::ostringstream extra;
    std::vector<Pass> passes;
    if (!traced) {
        // Passes until the next one would end past the budget.
        const auto t0 = Clock::now();
        do {
            passes.push_back(runPass(w, benchmarks, w.jobs, journal,
                                     passes.empty() ? output : fs::path()));
        } while (since(t0) + passes.back().wall <= budget);
        for (std::size_t i = 1; i < passes.size(); ++i)
            checkEqual(passes[0].cells, passes[i].cells,
                       "pass " + std::to_string(i) + " vs pass 0", log);
        checkCountsAcrossConfigs(passes[0].cells, nconf, log);
        log.attempted += passes.size() * passes[0].cells.size();

        if (subsetCheck) {
            const std::vector<std::size_t> picked =
                subsetIndices(benchmarks.size(), w.seed);
            std::vector<BenchmarkSpec> subset;
            for (std::size_t b : picked)
                subset.push_back(benchmarks[b]);
            const unsigned other = otherJobs(w.jobs);
            const Pass sub =
                runPass(w, subset, other, w.work / "subset.csv", {});
            checkEqual(cellsOf(passes[0].cells, nconf, picked), sub.cells,
                       "jobs " + std::to_string(other) + " subset", log);
            log.attempted += sub.cells.size();
            extra << ", \"subset_jobs\": " << other;
        }
    } else {
        const Pass jobsN = runPass(w, benchmarks, w.jobs, journal, output);
        passes.push_back(jobsN);
        log.attempted += jobsN.cells.size();
        Pass serial = jobsN;
        if (w.jobs != 1) {
            serial = runPass(w, benchmarks, 1, w.work / "serial.csv", {});
            checkEqual(jobsN.cells, serial.cells, "jobs 1 vs jobs N", log);
            log.attempted += serial.cells.size();
        }
        checkCountsAcrossConfigs(jobsN.cells, nconf, log);

        const double clock = clockReadSeconds();
        const TraceCorpus::StreamCacheStats before =
            TraceCorpus::streamCacheStats();
        const TracedRun t = runTraced(w, benchmarks);
        checkEqual(serial.cells, t.cells, "traced vs untraced", log);
        log.attempted += t.cells.size();
        const TraceCorpus::StreamCacheStats after =
            TraceCorpus::streamCacheStats();

        extra << ",\n  \"traced\": {"
              << "\"clock_read_s\": " << num(clock)
              << ", \"jobs_n\": " << w.jobs
              << ", \"jobs_n_wall_s\": " << num(jobsN.wall)
              << ", \"jobs_n_bench_seconds\": " << list(jobsN.benchSeconds)
              << ", \"serial_wall_s\": " << num(serial.wall)
              << ", \"serial_bench_seconds\": " << list(serial.benchSeconds)
              << ", \"traced_wall_s\": " << num(t.wall)
              << ",\n    \"open\": " << span(t.open)
              << ", \"next_chunk\": " << span(t.source.chunks)
              << ", \"records\": " << t.source.records
              << ", \"cache_hits\": " << after.hits - before.hits
              << ", \"cache_misses\": " << after.misses - before.misses
              << ",\n    \"ops\": {";
        for (int op = 0; op < kOps; ++op)
            extra << (op ? ", " : "") << quote(kOpNames[op]) << ": "
                  << span(t.ops[op]);
        extra << "},\n    \"restore_distance\": " << t.restoreDistance
              << ", \"commits\": " << t.pipeline.commits
              << ", \"squashes\": " << t.pipeline.squashes
              << ", \"replays\": " << t.pipeline.replays
              << ", \"table_bytes\": " << t.tableBytes
              << ",\n    \"replay\": {\"push\": " << span(t.replay.push)
              << ", \"tage\": " << span(t.replay.tage)
              << ", \"sc\": " << span(t.replay.sc)
              << ", \"imli\": " << span(t.replay.imli)
              << ", \"sic_oh\": " << span(t.replay.sicOh)
              << ", \"folds\": " << t.replay.folds << "}";
        if (w.sweep) {
            // runPass left the jobs-N journal complete; it is the
            // canonical output too, so measure on a copy.
            const fs::path copy = w.work / "resume.csv";
            fs::copy_file(journal, copy,
                          fs::copy_options::overwrite_existing);
            const DseStats d = measureDse(w, benchmarks, copy, log);
            extra << ",\n    \"dse\": {\"cells\": " << d.cells
                  << ", \"journal_bytes\": " << d.journalBytes
                  << ", \"journal_load_s\": " << num(d.loadSeconds)
                  << ", \"pareto_s\": " << num(d.paretoSeconds)
                  << ", \"resume_s\": " << num(d.resumeSeconds) << "}";
        }
        extra << "}";
        writeTraceEvents(w.work / "layers.trace.json", w, t);
    }

    std::vector<double> wall, cpu, rss;
    for (const Pass &p : passes) {
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
        rss.push_back(static_cast<double>(p.peakRssKb));
    }

    std::ofstream out(outPath, std::ios::binary);
    out << "{\n  \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << quote(kCompiler)
        << ", \"nproc\": " << ThreadPool::hardwareThreads()
        << ", \"jobs\": " << w.jobs << ", \"seed\": " << w.seed
        << ", \"traced\": " << (traced ? "true" : "false")
        << ",\n  \"benchmarks\": " << benchmarks.size()
        << ", \"configs\": [";
    for (std::size_t i = 0; i < nconf; ++i)
        out << (i ? ", " : "") << quote(w.configs[i]);
    out << "],\n  \"fingerprints\": {";
    for (std::size_t b = 0; b < benchmarks.size(); ++b)
        out << (b ? ", " : "") << quote(benchmarks[b].name) << ": "
            << quote(hex(fingerprints[b]));
    out << "},\n  \"setup_s\": " << list(setup)
        << ",\n  \"wall_s\": " << list(wall) << ",\n  \"cpu_s\": " << list(cpu)
        << ",\n  \"conditionals_per_pass\": " << passes[0].conditionals
        << ",\n  \"config_mpki\": {";
    std::size_t i = 0;
    for (const std::string &config : w.configs)
        out << (i++ ? ", " : "") << quote(config) << ": "
            << num(passes[0].configMpki.at(config));
    out << "},\n  \"output\": " << quote(output.string())
        << ",\n  \"attempted\": " << log.attempted
        << ", \"failed\": " << log.failed << ", \"failures\": [";
    for (std::size_t m = 0; m < log.messages.size(); ++m)
        out << (m ? ", " : "") << quote(log.messages[m]);
    out << "],\n  \"peak_rss_kb\": " << list(rss) << extra.str() << "\n}\n";
    if (!out)
        throw std::runtime_error("cannot write " + outPath.string());
    return 0;
} catch (const std::exception &e) {
    std::cerr << "perfbench_driver: error: " << e.what() << '\n';
    return 1;
}

// storm: batch analysis of incident-storm snapshots through
// SleuthPipeline::analyze (closed loop, one caller).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "core/pipeline.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "synth/generator.h"

namespace perfbench {

namespace {

using namespace sleuth;

/**
 * Snapshot sizes, fixed for every seed so that per-snapshot timings
 * are comparable across seeds: small ones are dominated by the linear
 * stages, large ones by the quadratic distance matrix and HDBSCAN.
 * The median analyze call falls among the thirteen 512-trace snapshots
 * (16 failure modes each) and the tail among the four 1024-trace ones.
 * With 256-trace snapshots (8 failure modes) the median hung on one
 * snapshot's content: within one seed they took 12 to 38 ms, and two
 * seeds at equal throughput read a p50 of 22 and 30 ms.
 */
const size_t kSnapshotSizes[] = {64,  96,  128, 192, 256, 384, 512,
                                 512, 512, 512, 512, 512, 512, 512,
                                 512, 512, 512, 512, 512, 640, 768,
                                 1024, 1024, 1024, 1024};

/** Traces harvested per chaos plan (failure modes share traces). */
constexpr size_t kQueriesPerPlan = 32;

/** Fixed application topology; the seed drives everything else. */
constexpr uint64_t kAppSeed = 7;
constexpr int kAppRpcs = 32;

/** Set-ups measured per run (setup_s is their median). */
constexpr size_t kSetups = 11;

struct Snapshot
{
    std::vector<trace::Trace> traces;
    std::vector<int64_t> slos;
    std::vector<std::set<std::string>> truth;
};

/** Order-sensitive digest of every verdict of one analysis. */
uint64_t
verdictFingerprint(const core::PipelineResult &r)
{
    uint64_t h = fnv1a("storm");
    for (size_t i = 0; i < r.perTrace.size(); ++i) {
        const core::RcaResult &v = r.perTrace[i];
        h = fnv1a(std::to_string(r.clusterLabels[i]) + ":", h);
        for (const std::string &s : v.services)
            h = fnv1a(s + ",", h);
        h = fnv1a(v.error + ";", h);
    }
    return h;
}

/** RCA calls executed: one per distinct verdict within a cluster,
    plus every individually analyzed trace. Returns their iterations. */
size_t
executedIterations(const core::PipelineResult &r)
{
    std::set<std::pair<int, std::vector<std::string>>> seen;
    size_t iters = 0;
    for (size_t i = 0; i < r.perTrace.size(); ++i) {
        const core::RcaResult &v = r.perTrace[i];
        int label = r.clusterLabels[i];
        if (label < 0 || seen.insert({label, v.services}).second)
            iters += v.iterations;
    }
    return iters;
}

} // namespace

void
runStorm(const Options &opt, RunResult *result)
{
    // --- Inputs (untimed): one experiment, partitioned into storms. ---
    size_t total = 0;
    for (size_t n : kSnapshotSizes)
        total += n;
    eval::ExperimentParams params;
    params.trainTraces = 400;
    params.numQueries = total;
    params.queriesPerPlan = kQueriesPerPlan;
    params.seed = opt.seed;
    eval::ExperimentData data = eval::prepareExperiment(
        synth::generateApp(synth::syntheticParams(kAppRpcs, kAppSeed)),
        params);
    std::vector<Snapshot> snapshots;
    size_t next = 0;
    for (size_t n : kSnapshotSizes) {
        Snapshot s;
        for (size_t i = 0; i < n; ++i, ++next) {
            eval::AnomalyQuery &q = data.queries[next];
            s.traces.push_back(std::move(q.trace));
            s.slos.push_back(q.sloUs);
            s.truth.push_back(q.truthServices);
        }
        snapshots.push_back(std::move(s));
    }

    // --- Set-up: fit plus pipeline construction. It is measured
    // kSetups times: once here for the objects the run uses, then once
    // after each of the first passes, so that the median spans the
    // run's changing host conditions rather than one moment of them. ---
    std::vector<double> setup_s, train_ms;
    auto setUp = [&](std::unique_ptr<eval::SleuthAdapter> *adapter,
                     std::unique_ptr<core::SleuthPipeline> *pipeline) {
        Clock::time_point t0 = Clock::now();
        auto a = std::make_unique<eval::SleuthAdapter>();
        a->fit(data.trainCorpus);
        Clock::time_point t1 = Clock::now();
        auto p = std::make_unique<core::SleuthPipeline>(
            a->model(), a->encoder(), a->profile(),
            core::PipelineConfig{});
        Clock::time_point t2 = Clock::now();
        train_ms.push_back(msBetween(t0, t1));
        setup_s.push_back(msBetween(t0, t2) / 1000.0);
        *adapter = std::move(a);
        *pipeline = std::move(p);
    };
    auto extraSetUp = [&] {
        std::unique_ptr<eval::SleuthAdapter> a;
        std::unique_ptr<core::SleuthPipeline> p;
        setUp(&a, &p);
        p.reset();
    };
    std::unique_ptr<eval::SleuthAdapter> adapter;
    std::unique_ptr<core::SleuthPipeline> pipeline;
    setUp(&adapter, &pipeline);

    // --- Warm-up pass (untimed): reference verdicts and accuracy. ---
    std::vector<uint64_t> reference;
    eval::RcaEvaluator quality;
    uint64_t run_fingerprint = fnv1a("storm-run");
    size_t traces_per_pass = 0;
    for (size_t si = 0; si < snapshots.size(); ++si) {
        const Snapshot &s = snapshots[si];
        core::PipelineResult r = pipeline->analyze(s.traces, s.slos);
        reference.push_back(verdictFingerprint(r));
        run_fingerprint =
            fnv1a(std::to_string(reference.back()), run_fingerprint);
        for (size_t i = 0; i < r.perTrace.size(); ++i)
            quality.addQuery(eval::toSet(r.perTrace[i].services),
                             s.truth[i]);
        traces_per_pass += s.traces.size();
    }
    char line[200];
    for (size_t si = 0; si < snapshots.size(); ++si) {
        std::snprintf(line, sizeof(line),
                      "storm snapshot %zu (%zu traces) verdict "
                      "fingerprint %016llx",
                      si, snapshots[si].traces.size(),
                      static_cast<unsigned long long>(reference[si]));
        result->notes.push_back(line);
    }
    if (opt.brk == Break::FingerprintDrift)
        run_fingerprint ^= 1;
    std::snprintf(line, sizeof(line), "storm run fingerprint %016llx",
                  static_cast<unsigned long long>(run_fingerprint));
    result->notes.push_back(line);
    if (opt.expectFingerprint != 0)
        result->check(run_fingerprint == opt.expectFingerprint,
                      "storm: verdict fingerprint differs from the "
                      "expected one for this seed");

    // --- Timed passes. A traced run spends its first half untraced
    // to measure the recorder's overhead on the same snapshots. ---
    Tracer tracer(opt.trace);
    double budget_ms = opt.seconds * 1000.0;
    double untraced_budget_ms = opt.trace ? budget_ms / 2.0 : budget_ms;
    std::vector<Pass> passes_log;
    std::vector<RequestWall> requests;
    double untraced_ms = 0.0, traced_ms = 0.0;
    size_t untraced_traces = 0, traced_traces = 0;
    size_t verdicts = 0, errors = 0, evals = 0, clusters = 0, rca = 0;
    size_t iterations = 0, traced_passes = 0;
    StageSums stages_before;
    bool corrupted = false;
    for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
        bool traced = phase == 1;
        double phase_budget =
            traced ? budget_ms - untraced_budget_ms : untraced_budget_ms;
        if (traced)
            stages_before = readStages();
        double elapsed = 0.0;
        size_t pass = 0;
        size_t phase_traces = 0;
        while (elapsed < phase_budget) {
            Clock::time_point pass_start = Clock::now();
            Pass record;
            for (size_t si = 0; si < snapshots.size(); ++si) {
                const Snapshot &s = snapshots[si];
                Clock::time_point r0 = Clock::now();
                std::string request;
                if (traced)
                    request = "storm/" + std::to_string(pass) + "." +
                              std::to_string(si);
                int span = traced ? tracer.open("core.analyze", -1,
                                                 request)
                                  : -1;
                Clock::time_point t0 = Clock::now();
                core::PipelineResult r =
                    pipeline->analyze(s.traces, s.slos);
                Clock::time_point t1 = Clock::now();
                tracer.close(span);
                if (traced)
                    requests.push_back(
                        {request, msBetween(r0, Clock::now()), "core.analyze"});
                else
                    record.latencies.push_back(msBetween(t0, t1));

                // Checks on the program's output.
                if (opt.brk == Break::CorruptVerdict && !corrupted) {
                    r.perTrace[r.perTrace.size() / 2].error = "corrupt";
                    corrupted = true;
                }
                if (opt.brk == Break::MiscountDistance && !corrupted) {
                    ++r.distanceEvaluations;
                    corrupted = true;
                }
                size_t m = s.traces.size();
                size_t bad = 0;
                for (const core::RcaResult &v : r.perTrace)
                    bad += v.error.empty() ? 0 : 1;
                bad += m - std::min(m, r.perTrace.size());
                verdicts += m - bad;
                errors += bad;
                if (r.distanceEvaluations != m * (m - 1) / 2)
                    result->check(false,
                                  "storm: snapshot " + std::to_string(si) +
                                      " made " +
                                      std::to_string(
                                          r.distanceEvaluations) +
                                      " distance evaluations, want m(m-1)"
                                      "/2 = " +
                                      std::to_string(m * (m - 1) / 2));
                if (verdictFingerprint(r) != reference[si])
                    result->check(false, "storm: snapshot " +
                                             std::to_string(si) +
                                             " verdicts differ from the "
                                             "warm-up analysis");
                if (traced) {
                    evals += r.distanceEvaluations;
                    clusters += static_cast<size_t>(r.numClusters);
                    rca += r.rcaInvocations;
                    iterations += executedIterations(r);
                }
                phase_traces += m;
            }
            ++pass;
            Clock::time_point pass_end = Clock::now();
            elapsed += msBetween(pass_start, pass_end);
            if (!traced) {
                record.rate = static_cast<double>(traces_per_pass) /
                              (msBetween(pass_start, pass_end) / 1000.0);
                record.rssMb = residentMb();
                passes_log.push_back(std::move(record));
                if (setup_s.size() < kSetups)
                    extraSetUp();
            }
        }
        if (traced) {
            traced_ms = elapsed;
            traced_traces = phase_traces;
            traced_passes = pass;
        } else {
            untraced_ms = elapsed;
            untraced_traces = phase_traces;
        }
    }
    while (setup_s.size() < kSetups)
        extraSetUp();
    if (errors > 0)
        result->check(false, "storm: " + std::to_string(errors) +
                                 " traces got no verdict");

    // --- End-to-end metrics (from the untraced phase). ---
    PassStats ps = passStats(passes_log);
    double rate = ps.rate;
    double tail = ps.tail;
    result->endToEnd["setup_s"] = {median(setup_s), "s"};
    result->endToEnd["throughput_per_s"] = {rate, "1/s"};
    result->endToEnd["request_p50_ms"] = {ps.p50, "ms"};
    result->endToEnd["request_tail_ms"] = {tail, "ms"};
    result->endToEnd["rss_mb"] = {ps.rssMb, "MiB"};
    result->attempted = verdicts + errors;
    result->failed = errors;
    result->endToEnd["complete_frac"] = {
        static_cast<double>(verdicts) /
            static_cast<double>(std::max<size_t>(1, verdicts + errors)),
        "ratio"};
    result->notes.push_back(describe("storm", ps, "analyze calls"));

    result->detail["analyze_traces_per_s"] = {rate, "traces/s"};
    result->detail["analyze_p50_ms"] = {ps.p50, "ms"};
    result->detail["analyze_tail_ms"] = {tail, "ms"};
    result->detail["rca_f1"] = {quality.f1(), "ratio"};
    result->detail["rca_acc"] = {quality.accuracy(), "ratio"};
    result->detail["traces_per_pass"] = {
        static_cast<double>(traces_per_pass), "count"};

    // --- Per-layer metrics (from the traced phase). ---
    result->perLayer["core.train_ms"] = {median(train_ms), "ms"};
    result->perLayer["core.rca_f1"] = {quality.f1(), "ratio"};
    result->perLayer["core.rca_acc"] = {quality.accuracy(), "ratio"};
    result->perLayer["core.analyze_p50_ms"] = {ps.p50, "ms"};
    result->perLayer["core.analyze_tail_ms"] = {tail, "ms"};
    if (!opt.trace)
        return;
    StageSums st = readStages() - stages_before;
    double passes = static_cast<double>(std::max<size_t>(1, traced_passes));
    result->perLayer["core.encode_ms"] = {st.encode / passes, "ms"};
    result->perLayer["distance.matrix_ms"] = {st.distance / passes, "ms"};
    result->perLayer["cluster.hdbscan_ms"] = {st.cluster / passes, "ms"};
    result->perLayer["core.rca_ms"] = {st.rca / passes, "ms"};
    result->perLayer["core.rca_per_trace"] = {
        static_cast<double>(rca) /
            static_cast<double>(std::max<size_t>(1, traced_traces)),
        "ratio"};
    result->perLayer["core.rca_iterations"] = {
        static_cast<double>(iterations) / passes, "count"};
    result->perLayer["core.rca_us_per_iteration"] = {
        iterations > 0 ? 1000.0 * st.rca / static_cast<double>(iterations)
                       : 0.0,
        "us"};
    result->perLayer["distance.evals"] = {
        static_cast<double>(evals) / passes, "count"};
    result->perLayer["cluster.clusters"] = {
        static_cast<double>(clusters) / passes, "count"};
    double per_trace_untraced =
        untraced_ms / static_cast<double>(std::max<size_t>(1, untraced_traces));
    double per_trace_traced =
        traced_ms / static_cast<double>(std::max<size_t>(1, traced_traces));
    result->perLayer["bench.trace_overhead_pct"] = {
        100.0 * (per_trace_traced / per_trace_untraced - 1.0), "%"};

    std::vector<Span> spans = tracer.spans();
    if (opt.brk == Break::LoseSpan)
        loseLargestTopSpan(&spans);
    Attribution analyze{"core.analyze",
                        {{"core.encode_ms", st.encode},
                         {"distance.matrix_ms", st.distance},
                         {"cluster.hdbscan_ms", st.cluster},
                         {"core.rca_ms", st.rca}},
                        "core.analyze_other_ms"};
    std::map<std::string, double> rows =
        reconcile(spans, requests, traced_ms, {analyze}, result);
    result->perLayer["core.analyze_other_ms"] = {
        rows["core.analyze_other_ms"] / passes, "ms"};
    if (!opt.outDir.empty())
        tracer.write(opt.outDir + "/spans-storm-s" +
                     std::to_string(opt.seed) + ".jsonl");
}

} // namespace perfbench

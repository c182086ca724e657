// RcaPruner unit tests: the conservative guaranteed-superset mode
// (pruned result bit-for-bit equal to the full run), aggressive
// thresholding/dedup with exemplar inheritance, detector-signal
// gating, and malformed-trace handling.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "core/pruner.h"
#include "core/trainer.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::makeSpan;

namespace {

/** Model trained on two-level traces (as in pipeline_test). */
struct PruneFixture
{
    FeatureEncoder encoder{8};
    SleuthGnn model;
    NormalProfile profile;

    PruneFixture()
        : model([] {
              GnnConfig c;
              c.embedDim = 8;
              c.hidden = 16;
              c.seed = 4;
              return c;
          }())
    {
        util::Rng rng(8);
        std::vector<trace::Trace> corpus;
        for (int i = 0; i < 100; ++i)
            corpus.push_back(makeTrace(rng, "backend", i >= 85));
        for (const trace::Trace &t : corpus)
            profile.add(t);
        profile.finalize();
        TrainConfig tc;
        tc.epochs = 8;
        Trainer trainer(model, encoder, tc);
        trainer.train(corpus);
    }

    static trace::Trace
    makeTrace(util::Rng &rng, const std::string &backend,
              bool slow = false)
    {
        int64_t b = rng.uniformInt(150, 300) * (slow ? 12 : 1);
        int64_t pre = rng.uniformInt(50, 120);
        trace::Trace t;
        t.traceId = "t" + std::to_string(rng.uniformInt(0, 1 << 30));
        t.spans.push_back(
            makeSpan("r", "", "frontend", "Handle", 0, pre + b + 80));
        t.spans.push_back(makeSpan("c", "r", "frontend",
                                   "Get" + backend, pre, pre + b + 40,
                                   trace::SpanKind::Client));
        t.spans.push_back(makeSpan("s", "c", backend, "Get" + backend,
                                   pre + 20, pre + 20 + b));
        return t;
    }
};

PruneFixture &
fixture()
{
    static PruneFixture f;
    return f;
}

std::vector<trace::Trace>
storm(const std::string &backend, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<trace::Trace> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(PruneFixture::makeTrace(rng, backend, true));
    return out;
}

trace::Trace
malformedTrace()
{
    trace::Trace t;
    t.traceId = "bad";
    t.spans.push_back(makeSpan("r", "", "frontend", "Handle", 0, 100));
    t.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    return t;
}

/** Full structural equality of two pipeline results. */
void
expectSameResult(const PipelineResult &a, const PipelineResult &b)
{
    EXPECT_EQ(a.clusterLabels, b.clusterLabels);
    EXPECT_EQ(a.numClusters, b.numClusters);
    EXPECT_EQ(a.rcaInvocations, b.rcaInvocations);
    EXPECT_EQ(a.distanceEvaluations, b.distanceEvaluations);
    EXPECT_EQ(a.skippedTraces, b.skippedTraces);
    ASSERT_EQ(a.perTrace.size(), b.perTrace.size());
    for (size_t i = 0; i < a.perTrace.size(); ++i) {
        EXPECT_EQ(a.perTrace[i].services, b.perTrace[i].services) << i;
        EXPECT_EQ(a.perTrace[i].iterations, b.perTrace[i].iterations)
            << i;
        EXPECT_EQ(a.perTrace[i].resolved, b.perTrace[i].resolved) << i;
        EXPECT_EQ(a.perTrace[i].error, b.perTrace[i].error) << i;
    }
}

} // namespace

TEST(RcaPruner, ConservativePlanKeepsEverything)
{
    PruneFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 1);
    traces.push_back(malformedTrace());
    std::vector<int64_t> slos(traces.size(), 900);

    PruneConfig cfg;
    cfg.mode = PruneConfig::Mode::Conservative;
    RcaPruner pruner(f.profile, cfg, RcaParams{});
    PrunePlan plan = pruner.plan(traces, slos);

    EXPECT_EQ(plan.tracesTotal, traces.size());
    EXPECT_EQ(plan.tracesKept, traces.size());
    EXPECT_EQ(plan.traceKeepRatio(), 1.0);
    for (size_t i = 0; i < traces.size(); ++i) {
        EXPECT_TRUE(plan.keep[i]) << i;
        EXPECT_EQ(plan.inheritFrom[i], -1) << i;
        EXPECT_TRUE(std::is_sorted(plan.candidates[i].begin(),
                                   plan.candidates[i].end()))
            << i;
    }
    // The malformed trace is kept and unrestricted: the pipeline skips
    // it exactly as without pruning.
    EXPECT_FALSE(plan.restricted.back());
    EXPECT_TRUE(plan.candidates.back().empty());
    // Well-formed traces carry their full ranked candidate list.
    for (size_t i = 0; i + 1 < traces.size(); ++i) {
        EXPECT_TRUE(plan.restricted[i]) << i;
        EXPECT_FALSE(plan.candidates[i].empty()) << i;
    }
}

TEST(RcaPruner, ConservativeAnalyzeIsBitwiseEqualToFull)
{
    PruneFixture &f = fixture();
    // Mixed storm: two failure modes plus one malformed trace, so
    // clustering, the far-member guard, and the skip path all run.
    std::vector<trace::Trace> traces = storm("backend", 8, 2);
    std::vector<trace::Trace> other = storm("cache", 8, 3);
    traces.insert(traces.end(), other.begin(), other.end());
    traces.insert(traces.begin() + 4, malformedTrace());
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig full_cfg;
    full_cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                        .clusterSelectionEpsilon = 0.0};
    SleuthPipeline full_pipeline(f.model, f.encoder, f.profile,
                                 full_cfg);
    PipelineResult full = full_pipeline.analyze(traces, slos);

    PipelineConfig pruned_cfg = full_cfg;
    pruned_cfg.prune.mode = PruneConfig::Mode::Conservative;
    SleuthPipeline pruned_pipeline(f.model, f.encoder, f.profile,
                                   pruned_cfg);
    PipelineResult pruned = pruned_pipeline.analyze(traces, slos);

    expectSameResult(full, pruned);
    EXPECT_EQ(pruned.prunedTraces, 0u);
    EXPECT_EQ(pruned.pruneTraceKeepRatio, 1.0);
    EXPECT_LE(pruned.pruneServiceKeepRatio, 1.0);
}

TEST(RcaPruner, AggressiveCollapsesDuplicatesOntoExemplars)
{
    PruneFixture &f = fixture();
    // Twelve near-identical traces of one failure mode: a signature
    // group the aggressive mode must collapse.
    std::vector<trace::Trace> traces = storm("backend", 12, 4);
    std::vector<int64_t> slos(traces.size(), 900);

    PruneConfig cfg;
    cfg.mode = PruneConfig::Mode::Aggressive;
    cfg.aggressiveness = 0.75;
    cfg.minExemplarsPerGroup = 2;
    RcaPruner pruner(f.profile, cfg, RcaParams{});
    PrunePlan plan = pruner.plan(traces, slos);

    EXPECT_LT(plan.tracesKept, plan.tracesTotal);
    EXPECT_LT(plan.traceKeepRatio(), 1.0);
    for (size_t i = 0; i < traces.size(); ++i) {
        if (plan.keep[i]) {
            EXPECT_EQ(plan.inheritFrom[i], -1) << i;
            continue;
        }
        int ex = plan.inheritFrom[i];
        ASSERT_GE(ex, 0) << i;
        ASSERT_LT(static_cast<size_t>(ex), traces.size()) << i;
        EXPECT_TRUE(plan.keep[static_cast<size_t>(ex)]) << i;
    }

    PipelineConfig pipe_cfg;
    pipe_cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                        .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, pipe_cfg);
    PipelineResult res = pipeline.analyze(traces, slos, {.plan = &plan});
    EXPECT_EQ(res.prunedTraces, plan.tracesTotal - plan.tracesKept);
    EXPECT_EQ(res.pruneTraceKeepRatio, plan.traceKeepRatio());
    // Pruned traces inherit their exemplar's verdict verbatim.
    for (size_t i = 0; i < traces.size(); ++i) {
        if (plan.keep[i])
            continue;
        const RcaResult &mine = res.perTrace[i];
        const RcaResult &ex =
            res.perTrace[static_cast<size_t>(plan.inheritFrom[i])];
        EXPECT_EQ(mine.services, ex.services) << i;
        EXPECT_EQ(mine.error, ex.error) << i;
    }
    // The storm is one failure mode: verdicts still name the backend.
    for (const RcaResult &r : res.perTrace) {
        ASSERT_FALSE(r.services.empty());
        EXPECT_EQ(r.services[0], "backend");
    }
}

TEST(RcaPruner, ZeroAggressivenessKeepsEveryTrace)
{
    PruneFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 5);
    std::vector<int64_t> slos(traces.size(), 900);

    PruneConfig cfg;
    cfg.mode = PruneConfig::Mode::Aggressive;
    cfg.aggressiveness = 0.0;
    RcaPruner pruner(f.profile, cfg, RcaParams{});
    PrunePlan plan = pruner.plan(traces, slos);
    EXPECT_EQ(plan.tracesKept, plan.tracesTotal);
    for (size_t i = 0; i < traces.size(); ++i)
        EXPECT_TRUE(plan.keep[i]) << i;
}

TEST(RcaPruner, DetectorSignalsGateCandidateReachability)
{
    PruneFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 6);
    std::vector<int64_t> slos(traces.size(), 900);

    PruneConfig cfg;
    cfg.mode = PruneConfig::Mode::Aggressive;
    cfg.aggressiveness = 0.5;
    RcaPruner pruner(f.profile, cfg, RcaParams{});

    // A quiet window signal for the storm's only endpoint: no root is
    // anomalous, nothing is reachable, every candidate set empties.
    PruneSignals quiet;
    quiet["frontend/Handle"] = EndpointSignal{0.0, 0, 200.0, 400.0};
    PrunePlan gated = pruner.plan(traces, slos, quiet);
    EXPECT_EQ(gated.servicesKept, 0u);
    for (size_t i = 0; i < traces.size(); ++i)
        EXPECT_TRUE(gated.candidates[i].empty()) << i;

    // A storming signal (or no signal at all — never prune blind)
    // keeps the backend candidate reachable.
    PruneSignals storming;
    storming["frontend/Handle"] = EndpointSignal{0.8, 3, 200.0, 4000.0};
    PrunePlan open = pruner.plan(traces, slos, storming);
    EXPECT_GT(open.servicesKept, 0u);
    PrunePlan blind = pruner.plan(traces, slos);
    EXPECT_GT(blind.servicesKept, 0u);
}

TEST(RcaPruner, AllPrunedCandidateSetYieldsEmptyVerdict)
{
    // A restricted trace whose candidate list is empty: the RCA filter
    // removes every ranked service and the verdict comes back empty —
    // the pipeline must survive this (the over-aggressive edge).
    PruneFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 4, 7);
    std::vector<int64_t> slos(traces.size(), 900);

    PrunePlan plan;
    const size_t n = traces.size();
    plan.keep.assign(n, 1);
    plan.inheritFrom.assign(n, -1);
    plan.restricted.assign(n, 1);
    plan.candidates.resize(n); // all empty: everything pruned away
    plan.tracesTotal = plan.tracesKept = n;

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 3, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos, {.plan = &plan});
    ASSERT_EQ(res.perTrace.size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(res.perTrace[i].services.empty()) << i;
        EXPECT_TRUE(res.perTrace[i].error.empty()) << i;
    }
}

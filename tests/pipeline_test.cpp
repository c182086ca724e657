// Unit tests for SleuthPipeline mechanics: representative-distance
// guard, invocation accounting, DBSCAN/HDBSCAN parity on pure
// clusters, and end-to-end determinism.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "core/trainer.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::makeSpan;

namespace {

/** Model trained on two-level traces (as in counterfactual_test). */
struct PipeFixture
{
    FeatureEncoder encoder{8};
    SleuthGnn model;
    NormalProfile profile;

    PipeFixture()
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

PipeFixture &
pipeFixture()
{
    static PipeFixture f;
    return f;
}

/** A storm: n slow traces through `backend`. */
std::vector<trace::Trace>
storm(const std::string &backend, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<trace::Trace> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(PipeFixture::makeTrace(rng, backend, true));
    return out;
}

} // namespace

TEST(PipelineMechanics, PureClusterOneInvocation)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 12, 1);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    // Identical failure mode: few clusters, far fewer RCA calls than
    // traces, same verdict everywhere.
    EXPECT_LT(res.rcaInvocations, traces.size() / 2);
    for (const RcaResult &r : res.perTrace) {
        ASSERT_FALSE(r.services.empty());
        EXPECT_EQ(r.services[0], "backend");
    }
}

TEST(PipelineMechanics, GuardSendsFarMembersToIndividualRca)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 2);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig strict;
    strict.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                      .clusterSelectionEpsilon = 0.0};
    strict.maxRepresentativeDistance = 1e-9;  // nobody inherits
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, strict);
    PipelineResult res = pipeline.analyze(traces, slos);
    // Every non-representative member falls back to individual RCA.
    EXPECT_GE(res.rcaInvocations, traces.size());
}

TEST(PipelineMechanics, DbscanMatchesHdbscanOnPureStorm)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 12, 3);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig hd;
    hd.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                  .clusterSelectionEpsilon = 0.0};
    PipelineConfig db;
    db.algorithm = PipelineConfig::Algorithm::Dbscan;
    db.dbscan = {.eps = 0.5, .minPts = 3};

    SleuthPipeline p1(f.model, f.encoder, f.profile, hd);
    SleuthPipeline p2(f.model, f.encoder, f.profile, db);
    PipelineResult r1 = p1.analyze(traces, slos);
    PipelineResult r2 = p2.analyze(traces, slos);
    for (size_t i = 0; i < traces.size(); ++i) {
        ASSERT_FALSE(r1.perTrace[i].services.empty());
        ASSERT_FALSE(r2.perTrace[i].services.empty());
        EXPECT_EQ(r1.perTrace[i].services[0],
                  r2.perTrace[i].services[0]);
    }
}

TEST(PipelineMechanics, DeterministicAcrossRuns)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 4);
    std::vector<int64_t> slos(traces.size(), 900);
    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 3, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult a = pipeline.analyze(traces, slos);
    PipelineResult b = pipeline.analyze(traces, slos);
    EXPECT_EQ(a.clusterLabels, b.clusterLabels);
    EXPECT_EQ(a.rcaInvocations, b.rcaInvocations);
    for (size_t i = 0; i < traces.size(); ++i)
        EXPECT_EQ(a.perTrace[i].services, b.perTrace[i].services);
}

TEST(PipelineMechanics, MalformedTraceInBatchIsSkippedNotFatal)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 7);
    // Inject two malformed traces mid-batch: an unresolved
    // parentSpanId and a parent cycle. Before the fix either one
    // aborted the whole batch inside TraceGraph::build.
    trace::Trace orphan;
    orphan.traceId = "orphan";
    orphan.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    orphan.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    traces.insert(traces.begin() + 3, orphan);
    trace::Trace cyclic;
    cyclic.traceId = "cyclic";
    cyclic.spans.push_back(
        makeSpan("r", "", "frontend", "Handle", 0, 100));
    cyclic.spans.push_back(makeSpan("a", "b", "backend", "Get", 5, 50));
    cyclic.spans.push_back(makeSpan("b", "a", "backend", "Put", 6, 40));
    traces.push_back(cyclic);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    EXPECT_EQ(res.skippedTraces, 2u);
    // The malformed traces carry error verdicts and no cluster.
    EXPECT_FALSE(res.perTrace[3].error.empty());
    EXPECT_NE(res.perTrace[3].error.find("parentSpanId"),
              std::string::npos);
    EXPECT_EQ(res.clusterLabels[3], -1);
    EXPECT_TRUE(res.perTrace[3].services.empty());
    EXPECT_FALSE(res.perTrace.back().error.empty());
    EXPECT_EQ(res.clusterLabels.back(), -1);
    // Every well-formed trace still gets its verdict.
    for (size_t i = 0; i < traces.size(); ++i) {
        if (i == 3 || i + 1 == traces.size())
            continue;
        ASSERT_TRUE(res.perTrace[i].error.empty()) << i;
        ASSERT_FALSE(res.perTrace[i].services.empty()) << i;
        EXPECT_EQ(res.perTrace[i].services[0], "backend");
    }
    // The distance matrix covered only the well-formed subset.
    size_t m = traces.size() - 2;
    EXPECT_EQ(res.distanceEvaluations, m * (m - 1) / 2);
}

namespace {

/** Structurally broken trace: its only non-root span has no parent. */
trace::Trace
orphanTrace(const std::string &id)
{
    trace::Trace t;
    t.traceId = id;
    t.spans.push_back(makeSpan("r", "", "frontend", "Handle", 0, 100));
    t.spans.push_back(
        makeSpan("x", "nosuchspan", "backend", "Get", 10, 60));
    return t;
}

/**
 * A caller-built matrix: per-pair weighted Jaccard over the encoded
 * span sets, with every malformed row at distance 0 from everything
 * (so it would pull its batch mates together if it were clustered).
 */
distance::DistanceMatrix
jaccardMatrix(const std::vector<trace::Trace> &traces)
{
    std::vector<distance::WeightedSpanSet> sets(traces.size());
    std::vector<char> ok(traces.size(), 0);
    for (size_t i = 0; i < traces.size(); ++i) {
        trace::TraceGraph g;
        std::string err;
        if (trace::TraceGraph::tryBuild(traces[i], &g, &err)) {
            sets[i] = distance::encodeSpanSet(traces[i], g);
            ok[i] = 1;
        }
    }
    return distance::DistanceMatrix::compute(
        traces.size(), [&](size_t a, size_t b) {
            return ok[a] && ok[b]
                       ? distance::jaccardDistance(sets[a], sets[b])
                       : 0.0;
        });
}

} // namespace

TEST(PipelineMechanics, MatrixPathAccountsMalformedLikeAnalyze)
{
    // A caller-built matrix covers every row, malformed included. The
    // pipeline must account distance work over the m well-formed
    // traces only, as it does for its own matrix, and cluster only
    // those rows.
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 21);
    traces.insert(traces.begin() + 2, orphanTrace("orphan"));
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);

    distance::DistanceMatrix flat = distance::DistanceMatrix::compute(
        traces.size(), [](size_t, size_t) { return 0.1; });
    PipelineResult res =
        pipeline.analyze(traces, slos, {.distance = &flat});

    const size_t m = traces.size() - 1;
    EXPECT_EQ(res.skippedTraces, 1u);
    EXPECT_EQ(res.distanceEvaluations, m * (m - 1) / 2);
    EXPECT_FALSE(res.perTrace[2].error.empty());
    EXPECT_EQ(res.clusterLabels[2], -1);
    // Cluster ids stay compacted: every id below numClusters occurs.
    std::vector<bool> seen(static_cast<size_t>(res.numClusters), false);
    for (int c : res.clusterLabels)
        if (c >= 0) {
            ASSERT_LT(c, res.numClusters);
            seen[static_cast<size_t>(c)] = true;
        }
    for (size_t c = 0; c < seen.size(); ++c)
        EXPECT_TRUE(seen[c]) << "empty cluster id " << c;

    // With a non-flat matrix whose malformed rows sit at distance 0
    // from everything, the well-formed traces must still get exactly
    // the verdicts and labels of the clean batch.
    std::vector<trace::Trace> clean = storm("backend", 8, 22);
    std::vector<trace::Trace> other = storm("cache", 8, 23);
    clean.insert(clean.end(), other.begin(), other.end());
    std::vector<trace::Trace> dirty = clean;
    dirty.insert(dirty.begin() + 11, orphanTrace("orphan-b"));
    dirty.insert(dirty.begin() + 3, orphanTrace("orphan-a"));
    const std::vector<size_t> malformed = {3, 12};
    std::vector<int64_t> clean_slos(clean.size(), 900);
    std::vector<int64_t> dirty_slos(dirty.size(), 900);

    distance::DistanceMatrix clean_dist = jaccardMatrix(clean);
    distance::DistanceMatrix dirty_dist = jaccardMatrix(dirty);
    PipelineResult want =
        pipeline.analyze(clean, clean_slos, {.distance = &clean_dist});
    PipelineResult got =
        pipeline.analyze(dirty, dirty_slos, {.distance = &dirty_dist});
    ASSERT_GE(want.numClusters, 1);
    EXPECT_EQ(got.numClusters, want.numClusters);
    EXPECT_EQ(got.skippedTraces, malformed.size());
    EXPECT_EQ(got.rcaInvocations, want.rcaInvocations);
    size_t k = 0;
    for (size_t i = 0; i < dirty.size(); ++i) {
        if (std::find(malformed.begin(), malformed.end(), i) !=
            malformed.end()) {
            EXPECT_FALSE(got.perTrace[i].error.empty()) << i;
            EXPECT_EQ(got.clusterLabels[i], -1) << i;
            continue;
        }
        EXPECT_EQ(got.perTrace[i].services, want.perTrace[k].services)
            << i;
        EXPECT_EQ(got.clusterLabels[i], want.clusterLabels[k]) << i;
        ++k;
    }
    EXPECT_EQ(k, clean.size());
}

TEST(PipelineMechanics, MalformedTraceSkippedOnIndividualPath)
{
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 4, 8);
    trace::Trace rootless;
    rootless.traceId = "rootless";
    rootless.spans.push_back(
        makeSpan("a", "a", "backend", "Get", 0, 10));
    traces.push_back(rootless);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.clustering = false;
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);
    EXPECT_EQ(res.skippedTraces, 1u);
    EXPECT_EQ(res.rcaInvocations, traces.size() - 1);
    EXPECT_FALSE(res.perTrace.back().error.empty());
    for (size_t i = 0; i + 1 < traces.size(); ++i)
        EXPECT_TRUE(res.perTrace[i].error.empty()) << i;
}

namespace {

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
        EXPECT_EQ(a.perTrace[i].pods, b.perTrace[i].pods) << i;
        EXPECT_EQ(a.perTrace[i].nodes, b.perTrace[i].nodes) << i;
        EXPECT_EQ(a.perTrace[i].containers, b.perTrace[i].containers)
            << i;
        EXPECT_EQ(a.perTrace[i].iterations, b.perTrace[i].iterations)
            << i;
        EXPECT_EQ(a.perTrace[i].resolved, b.perTrace[i].resolved) << i;
        EXPECT_EQ(a.perTrace[i].error, b.perTrace[i].error) << i;
    }
}

} // namespace

TEST(PipelineMechanics, ParallelAnalyzeIsBitwiseIdenticalToSerial)
{
    PipeFixture &f = pipeFixture();
    // A mixed storm with noise, two failure modes, and one malformed
    // trace, so representatives, the far-member guard, the individual
    // fallback, and the skip path all execute.
    std::vector<trace::Trace> traces = storm("backend", 9, 9);
    std::vector<trace::Trace> other = storm("cache", 9, 10);
    traces.insert(traces.end(), other.begin(), other.end());
    trace::Trace bad;
    bad.traceId = "bad";
    bad.spans.push_back(
        makeSpan("x", "missing", "backend", "Get", 0, 10));
    traces.insert(traces.begin() + 5, bad);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    cfg.numThreads = 1;
    SleuthPipeline serial(f.model, f.encoder, f.profile, cfg);
    PipelineResult base = serial.analyze(traces, slos);
    EXPECT_EQ(base.skippedTraces, 1u);

    for (size_t threads : {size_t{2}, size_t{8}}) {
        cfg.numThreads = threads;
        SleuthPipeline parallel(f.model, f.encoder, f.profile, cfg);
        PipelineResult res = parallel.analyze(traces, slos);
        expectSameResult(base, res);
        // The clustering-off path must be thread-count-invariant too.
        PipelineConfig indiv = cfg;
        indiv.clustering = false;
        PipelineConfig indiv1 = indiv;
        indiv1.numThreads = 1;
        SleuthPipeline pi(f.model, f.encoder, f.profile, indiv);
        SleuthPipeline pi1(f.model, f.encoder, f.profile, indiv1);
        expectSameResult(pi1.analyze(traces, slos),
                         pi.analyze(traces, slos));
    }
}

TEST(PipelineMechanics, EmptyInput)
{
    PipeFixture &f = pipeFixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, {});
    PipelineResult res = pipeline.analyze({}, {});
    EXPECT_TRUE(res.perTrace.empty());
    EXPECT_EQ(res.rcaInvocations, 0u);
}

TEST(PipelineMechanics, MixedStormSeparatesFailureModes)
{
    PipeFixture &f = pipeFixture();
    // Two distinct failure modes with structurally different spans.
    std::vector<trace::Trace> traces = storm("backend", 8, 5);
    std::vector<trace::Trace> other = storm("cache", 8, 6);
    traces.insert(traces.end(), other.begin(), other.end());
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult res = pipeline.analyze(traces, slos);

    int backend_hits = 0, cache_hits = 0;
    for (size_t i = 0; i < 8; ++i)
        if (!res.perTrace[i].services.empty() &&
            res.perTrace[i].services[0] == "backend")
            ++backend_hits;
    for (size_t i = 8; i < 16; ++i)
        if (!res.perTrace[i].services.empty() &&
            res.perTrace[i].services[0] == "cache")
            ++cache_hits;
    EXPECT_GE(backend_hits, 6);
    EXPECT_GE(cache_hits, 6);
}

TEST(PipelineMechanics, DefaultMatrixMatchesCallerJaccardMatrix)
{
    // The pipeline's own weighted-Jaccard matrix (grouped SIMD kernel)
    // and a caller-built matrix of per-pair jaccardDistance over the
    // same encoded span sets must drive identical clustering and RCA.
    PipeFixture &f = pipeFixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 31);
    std::vector<trace::Trace> other = storm("cache", 10, 32);
    traces.insert(traces.end(), other.begin(), other.end());
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 4, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PipelineResult base = pipeline.analyze(traces, slos);
    ASSERT_GE(base.numClusters, 2);

    distance::DistanceMatrix dist = jaccardMatrix(traces);
    expectSameResult(base,
                     pipeline.analyze(traces, slos, {.distance = &dist}));
}

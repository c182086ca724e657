// PipelineCache unit tests: warm re-analysis is bitwise equal to a
// cold one, content mutations (new span, changed error flag)
// invalidate and fall back to full recompute, and the retention knobs
// (maxGenerations aging, maxTraces cap) evict without ever changing a
// result.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/pipeline_cache.h"
#include "core/trainer.h"
#include "test_helpers.h"

using namespace sleuth;
using namespace sleuth::core;
using sleuth::testing::makeSpan;

namespace {

/** Model trained on two-level traces (as in pipeline_test). */
struct CacheFixture
{
    FeatureEncoder encoder{8};
    SleuthGnn model;
    NormalProfile profile;

    CacheFixture()
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

CacheFixture &
fixture()
{
    static CacheFixture f;
    return f;
}

std::vector<trace::Trace>
storm(const std::string &backend, size_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<trace::Trace> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(CacheFixture::makeTrace(rng, backend, true));
    return out;
}

PipelineConfig
clusteredConfig()
{
    PipelineConfig cfg;
    cfg.hdbscan = {.minClusterSize = 3, .minSamples = 2,
                   .clusterSelectionEpsilon = 0.0};
    return cfg;
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

TEST(PipelineCache, WarmRepollIsBitwiseEqualAndHitsBatchFastPath)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 11);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineResult fresh = pipeline.analyze(traces, slos);
    PipelineCache cache;
    PipelineResult cold =
        pipeline.analyze(traces, slos, {.cache = &cache});
    expectSameResult(fresh, cold);
    EXPECT_EQ(cache.stats().batchHits, 0u);

    PipelineResult warm =
        pipeline.analyze(traces, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_EQ(cache.stats().batchHits, 1u);
    // The logical invocation count is cache-oblivious by design.
    EXPECT_EQ(warm.rcaInvocations, fresh.rcaInvocations);
}

TEST(PipelineCache, SlidWindowReusesEncodingsAndVerdicts)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 12);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, {.cache = &cache});
    PipelineCache::Stats before = cache.stats();

    // Drop the oldest trace and add a new one: the slid window.
    std::vector<trace::Trace> slid(traces.begin() + 1, traces.end());
    util::Rng novel(99);
    slid.push_back(CacheFixture::makeTrace(novel, "backend", true));
    std::vector<int64_t> slid_slos(slid.size(), 900);

    PipelineResult fresh = pipeline.analyze(slid, slid_slos);
    PipelineResult warm =
        pipeline.analyze(slid, slid_slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    PipelineCache::Stats after = cache.stats();
    // The surviving traces were not re-encoded or re-judged.
    EXPECT_GT(after.encodingHits + after.verdictHits,
              before.encodingHits + before.verdictHits);
    EXPECT_EQ(after.batchHits, before.batchHits);
}

TEST(PipelineCache, NewSpanInvalidatesAndFallsBackToFullRecompute)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 13);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, {.cache = &cache});
    ASSERT_EQ(cache.stats().invalidations, 0u);

    // A late span arrives for trace 0 between polls: same traceId,
    // new content. The stale entry must be dropped, not reused.
    std::vector<trace::Trace> mutated = traces;
    mutated[0].spans.push_back(makeSpan("x", "s", "backend", "Retry",
                                        200, 260));
    PipelineResult fresh = pipeline.analyze(mutated, slos);
    PipelineResult warm =
        pipeline.analyze(mutated, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(PipelineCache, ChangedErrorFlagInvalidates)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 6, 14);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache cache;
    pipeline.analyze(traces, slos, {.cache = &cache});
    uint64_t fp_before = PipelineCache::fingerprint(traces[0]);

    // Only the status flips — span count and timings are unchanged, so
    // anything short of a full-content fingerprint would miss this.
    std::vector<trace::Trace> mutated = traces;
    mutated[0].spans.back().status = trace::StatusCode::Error;
    EXPECT_NE(PipelineCache::fingerprint(mutated[0]), fp_before);

    PipelineResult fresh = pipeline.analyze(mutated, slos);
    PipelineResult warm =
        pipeline.analyze(mutated, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(PipelineCache, AgingEvictsUntouchedEntries)
{
    CacheFixture &f = fixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache::Config cc;
    cc.maxGenerations = 2;
    PipelineCache cache(cc);

    std::vector<trace::Trace> first = storm("backend", 4, 15);
    std::vector<int64_t> slos(first.size(), 900);
    pipeline.analyze(first, slos, {.cache = &cache});
    EXPECT_EQ(cache.size(), first.size());

    // Three disjoint batches later the first window has aged out.
    for (uint64_t seed = 16; seed < 19; ++seed) {
        std::vector<trace::Trace> other = storm("cache", 4, seed);
        std::vector<int64_t> oslos(other.size(), 900);
        pipeline.analyze(other, oslos, {.cache = &cache});
    }
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_LT(cache.size(), first.size() + 12);

    // The evicted window re-analyzes from scratch, bitwise equal.
    PipelineResult fresh = pipeline.analyze(first, slos);
    PipelineResult warm = pipeline.analyze(first, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
}

TEST(PipelineCache, MaxTracesCapEvictsDeterministically)
{
    CacheFixture &f = fixture();
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    PipelineCache::Config cc;
    cc.maxTraces = 4;
    PipelineCache cache(cc);

    std::vector<trace::Trace> big = storm("backend", 10, 20);
    std::vector<int64_t> slos(big.size(), 900);
    PipelineResult fresh = pipeline.analyze(big, slos);
    pipeline.analyze(big, slos, {.cache = &cache});
    // Same-batch entries share a generation, so the cap only bites on
    // the next beginBatch; the capped cache must still answer the
    // repeat bitwise-identically (batch fast path or recompute).
    PipelineResult warm = pipeline.analyze(big, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_LE(cache.size(), std::max<size_t>(cc.maxTraces, big.size()));
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(PipelineCache, GrowingWindowReusesMatrixPrefixBitwiseEqual)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 10, 23);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    // First poll sees a 6-trace window; the re-poll appends four late
    // traces. The stored packed triangle must be reused as a prefix
    // and the assembled matrix must still drive the exact verdicts a
    // cold analysis produces.
    std::vector<trace::Trace> small(traces.begin(), traces.begin() + 6);
    std::vector<int64_t> small_slos(small.size(), 900);
    PipelineCache cache;
    pipeline.analyze(small, small_slos, {.cache = &cache});
    ASSERT_EQ(cache.stats().matrixPrefixHits, 0u);

    PipelineResult fresh = pipeline.analyze(traces, slos);
    PipelineResult warm =
        pipeline.analyze(traces, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().matrixPrefixHits, 0u);
}

TEST(PipelineCache, MutatedLeadingTraceBreaksMatrixPrefix)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 24);
    std::vector<int64_t> slos(traces.size(), 900);
    SleuthPipeline pipeline(f.model, f.encoder, f.profile,
                            clusteredConfig());

    std::vector<trace::Trace> small(traces.begin(), traces.begin() + 6);
    std::vector<int64_t> small_slos(small.size(), 900);
    PipelineCache cache;
    pipeline.analyze(small, small_slos, {.cache = &cache});

    // The window grows AND its first trace mutated between polls: the
    // re-encoded trace gets a fresh encoding id, so the stored matrix
    // must not be reused (stale pair distances would leak).
    std::vector<trace::Trace> grown = traces;
    grown[0].spans.push_back(makeSpan("x", "s", "backend", "Retry",
                                      200, 260));
    PipelineResult fresh = pipeline.analyze(grown, slos);
    PipelineResult warm =
        pipeline.analyze(grown, slos, {.cache = &cache});
    expectSameResult(fresh, warm);
    EXPECT_EQ(cache.stats().matrixPrefixHits, 0u);
    EXPECT_GT(cache.stats().invalidations, 0u);
}

TEST(PipelineCache, MatrixPrefixLookupSemantics)
{
    PipelineCache cache;
    distance::DistanceMatrix m(3);
    m.set(1, 0, 0.25);
    m.set(2, 0, 0.5);
    m.set(2, 1, 0.75);
    cache.storeMatrix({4, 7, 9}, m);

    // Exact sequence and proper extension both hit with the stored
    // item count; reordered, truncated, or diverging sequences miss.
    size_t k = 0;
    const distance::DistanceMatrix *hit =
        cache.lookupMatrixPrefix({4, 7, 9, 12}, &k);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(k, 3u);
    EXPECT_EQ(hit->at(2, 1), 0.75);
    ASSERT_NE(cache.lookupMatrixPrefix({4, 7, 9}, &k), nullptr);
    EXPECT_EQ(k, 3u);
    EXPECT_EQ(cache.lookupMatrixPrefix({4, 7}, &k), nullptr);
    EXPECT_EQ(cache.lookupMatrixPrefix({4, 9, 7, 12}, &k), nullptr);
    EXPECT_EQ(cache.lookupMatrixPrefix({7, 9, 4}, &k), nullptr);

    // Batches above the retention cap are not pinned in memory.
    PipelineCache::Config cc;
    cc.maxMatrixTraces = 2;
    PipelineCache bounded(cc);
    bounded.storeMatrix({4, 7, 9}, m);
    EXPECT_EQ(bounded.lookupMatrixPrefix({4, 7, 9}, &k), nullptr);
}

TEST(PipelineCache, CacheComposesWithConservativePruning)
{
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 22);
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg = clusteredConfig();
    cfg.prune.mode = PruneConfig::Mode::Conservative;
    SleuthPipeline pruned(f.model, f.encoder, f.profile, cfg);
    PipelineConfig plain_cfg = clusteredConfig();
    SleuthPipeline plain(f.model, f.encoder, f.profile, plain_cfg);

    PipelineResult fresh = plain.analyze(traces, slos);
    PipelineCache cache;
    PipelineResult cold = pruned.analyze(traces, slos, {.cache = &cache});
    PipelineResult warm = pruned.analyze(traces, slos, {.cache = &cache});
    expectSameResult(fresh, cold);
    expectSameResult(fresh, warm);
    EXPECT_GT(cache.stats().batchHits, 0u);
}

TEST(PipelineCache, BatchKeyCoversThePrunePlan)
{
    // The batch fast path stores the fully scattered result, pruned
    // traces included, so its key must cover the plan: a plan that
    // keeps the same traces but re-points an inheritance must miss.
    CacheFixture &f = fixture();
    std::vector<trace::Trace> traces = storm("backend", 8, 24);
    std::vector<trace::Trace> other = storm("cache", 8, 25);
    traces.insert(traces.end(), other.begin(), other.end());
    std::vector<int64_t> slos(traces.size(), 900);

    PipelineConfig cfg = clusteredConfig();
    cfg.prune.mode = PruneConfig::Mode::Aggressive;
    cfg.prune.aggressiveness = 0.7;
    SleuthPipeline pipeline(f.model, f.encoder, f.profile, cfg);
    PrunePlan plan =
        RcaPruner(f.profile, cfg.prune, cfg.rca).plan(traces, slos);
    ASSERT_LT(plan.tracesKept, plan.tracesTotal);

    PipelineResult fresh = pipeline.analyze(traces, slos, {.plan = &plan});
    PipelineCache cache;
    PipelineResult cold =
        pipeline.analyze(traces, slos, {.plan = &plan, .cache = &cache});
    PipelineResult warm =
        pipeline.analyze(traces, slos, {.plan = &plan, .cache = &cache});
    expectSameResult(fresh, cold);
    expectSameResult(fresh, warm);
    EXPECT_EQ(warm.prunedTraces, fresh.prunedTraces);
    EXPECT_EQ(warm.pruneServiceKeepRatio, fresh.pruneServiceKeepRatio);
    EXPECT_EQ(cache.stats().batchHits, 1u);

    // Re-point one pruned trace at a kept exemplar with another verdict.
    size_t victim = traces.size(), exemplar = traces.size();
    for (size_t i = 0; i < traces.size() && victim == traces.size(); ++i)
        for (size_t e = 0; e < traces.size() && !plan.keep[i]; ++e)
            if (plan.keep[e] &&
                fresh.perTrace[e].services != fresh.perTrace[i].services) {
                victim = i;
                exemplar = e;
                break;
            }
    ASSERT_LT(victim, traces.size());
    PrunePlan moved = plan;
    moved.inheritFrom[victim] = static_cast<int>(exemplar);
    PipelineResult want =
        pipeline.analyze(traces, slos, {.plan = &moved});
    PipelineResult got =
        pipeline.analyze(traces, slos, {.plan = &moved, .cache = &cache});
    expectSameResult(want, got);
    EXPECT_EQ(got.perTrace[victim].services,
              fresh.perTrace[exemplar].services);
}

#include "pipeline.h"

#include <algorithm>
#include <map>
#include <memory>

#include "cluster/svdd.h"
#include "core/pipeline_cache.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace sleuth::core {

namespace {

/** Per-stage wall-clock histogram for sleuth_pipeline_stage_ms. */
enum class Stage { Encode, Distance, Cluster, Rca };

obs::Histogram &
stageHistogram(Stage stage)
{
    static const char *name = "sleuth_pipeline_stage_ms";
    static const char *help =
        "Wall-clock milliseconds per pipeline stage per batch";
    static obs::Histogram &encode =
        obs::histogram(name, help, {{"stage", "encode"}});
    static obs::Histogram &distance =
        obs::histogram(name, help, {{"stage", "distance"}});
    static obs::Histogram &cluster =
        obs::histogram(name, help, {{"stage", "cluster"}});
    static obs::Histogram &rca =
        obs::histogram(name, help, {{"stage", "rca"}});
    switch (stage) {
      case Stage::Encode: return encode;
      case Stage::Distance: return distance;
      case Stage::Cluster: return cluster;
      case Stage::Rca: return rca;
    }
    util::panic("invalid pipeline stage");
}

/** Batch entry accounting for analyze(). */
void
countBatch(size_t traces)
{
    static obs::Counter &batches = obs::counter(
        "sleuth_pipeline_batches_total", "Analysis batches started");
    static obs::Counter &traceCount = obs::counter(
        "sleuth_pipeline_traces_total",
        "Traces submitted for analysis");
    batches.add();
    traceCount.add(traces);
}

/** The verdict recorded for a trace the graph builder rejected. */
RcaResult
errorVerdict(const std::string &why)
{
    RcaResult r;
    r.error = "malformed trace: " + why;
    return r;
}

uint64_t
hashCombine(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/** Verdict-cache key component for a candidate filter. The non-zero
    seed keeps an empty filter distinct from no filter at all. */
uint64_t
candidateHash(const std::vector<std::string> &list)
{
    uint64_t h = 0xca4d1da7e5ull;
    for (const std::string &s : list)
        h = hashCombine(h, util::fnv1a(s));
    return h;
}

/**
 * Weighted-Jaccard matrix over encoded span sets, assembled through the
 * incremental cache when one is present. Three tiers, fastest first:
 * the previous poll's whole matrix reused as a packed prefix (growing
 * incident windows), then the per-pair cache, then — for mostly-cold
 * batches (under 25% pair hits) — the grouped SIMD kernel. Every tier
 * shares jaccardDistance as the per-pair bitwise reference (pinned by
 * simd_test), so all assembly paths produce identical doubles.
 */
distance::DistanceMatrix
cachedDistanceMatrix(const std::vector<distance::WeightedSpanSet> &sets,
                     const std::vector<uint32_t> &encIds,
                     PipelineCache *cache, util::ThreadPool &pool)
{
    if (cache == nullptr)
        return distance::DistanceMatrix::fromSpanSets(sets, &pool);
    const size_t m = sets.size();
    const size_t total = m < 2 ? 0 : m * (m - 1) / 2;
    distance::DistanceMatrix out(m);
    // On a re-poll of an open incident the previous batch's traces
    // come back first and new ones append, so the stored triangle is a
    // byte prefix of this one: copy it wholesale and compute only the
    // appended rows (each owns a disjoint packed slice, so the
    // parallel fill is race-free and thread-count independent).
    size_t prefix = 0;
    if (const distance::DistanceMatrix *prev =
            cache->lookupMatrixPrefix(encIds, &prefix)) {
        out.assignPrefix(*prev);
        pool.parallelFor(m - prefix, [&](size_t k, size_t) {
            size_t i = prefix + k;
            for (size_t j = 0; j < i; ++j)
                out.set(i, j,
                        distance::jaccardDistance(sets[i], sets[j]));
        });
        cache->storeMatrix(encIds, out);
        return out;
    }
    std::vector<std::pair<size_t, size_t>> missing;
    for (size_t i = 1; i < m; ++i)
        for (size_t j = 0; j < i; ++j) {
            double d;
            if (cache->lookupDistance(encIds[i], encIds[j], &d))
                out.set(i, j, d);
            else
                missing.push_back({i, j});
        }
    if (missing.size() * 4 > total * 3) {
        out = distance::DistanceMatrix::fromSpanSets(sets, &pool);
        for (auto [i, j] : missing)
            cache->storeDistance(encIds[i], encIds[j], out.at(i, j));
        cache->storeMatrix(encIds, out);
        return out;
    }
    pool.parallelFor(missing.size(), [&](size_t k, size_t) {
        auto [i, j] = missing[k];
        out.set(i, j, distance::jaccardDistance(sets[i], sets[j]));
    });
    for (auto [i, j] : missing)
        cache->storeDistance(encIds[i], encIds[j], out.at(i, j));
    cache->storeMatrix(encIds, out);
    return out;
}

} // namespace

/**
 * Per-batch parallel engine. Worker 0 (the calling thread) reuses the
 * pipeline's shared FeatureEncoder so its embedding cache stays warm
 * across batches; every additional worker owns a private encoder —
 * the token-hash embedding is a pure function of the input string, so
 * a cold cache changes cost, never results — because the cache inside
 * TextEmbedder is the one piece of shared mutable state the
 * const-correctness audit found on the RCA path (NormalProfile and
 * SleuthGnn are read-only after construction and safely shared).
 */
struct SleuthPipeline::Engine
{
    /** Private encoder + RCA for one spawned worker. */
    struct PerWorker
    {
        FeatureEncoder encoder;
        CounterfactualRca rca;

        explicit PerWorker(const SleuthPipeline &p)
            : encoder(p.encoder_.embedder().dim(), p.encoder_.scale()),
              rca(p.model_, encoder, p.profile_, p.config_.rca)
        {
        }
    };

    util::ThreadPool pool;
    FeatureEncoder &encoder0;
    CounterfactualRca rca0;
    std::vector<std::unique_ptr<PerWorker>> extra;

    explicit Engine(const SleuthPipeline &p)
        : pool(util::ThreadPool::resolveThreads(p.config_.numThreads)),
          encoder0(p.encoder_),
          rca0(p.model_, p.encoder_, p.profile_, p.config_.rca)
    {
        extra.reserve(pool.size() - 1);
        for (size_t w = 1; w < pool.size(); ++w)
            extra.push_back(std::make_unique<PerWorker>(p));
    }

    CounterfactualRca &
    rcaFor(size_t worker)
    {
        return worker == 0 ? rca0 : extra[worker - 1]->rca;
    }
};

SleuthPipeline::SleuthPipeline(const SleuthGnn &model,
                               FeatureEncoder &encoder,
                               const NormalProfile &profile,
                               PipelineConfig config)
    : model_(model), encoder_(encoder), profile_(profile),
      config_(config)
{
}

PipelineResult
SleuthPipeline::analyze(const std::vector<trace::Trace> &traces,
                        const std::vector<int64_t> &slos,
                        const AnalysisInputs &in) const
{
    const size_t n = traces.size();
    SLEUTH_ASSERT(slos.size() == n, "trace/slo count mismatch");
    SLEUTH_ASSERT(in.distance == nullptr || in.distance->size() == n,
                  "distance matrix / trace count mismatch");
    SLEUTH_ASSERT(in.distance == nullptr || in.cache == nullptr,
                  "the pipeline cache keys distances by span-set "
                  "encoding; it cannot pair with a caller matrix");
    countBatch(n);
    PipelineCache *cache = in.cache;

    // The caller's prune plan, else one computed when pruning is on.
    PrunePlan computed;
    const PrunePlan *plan = in.plan;
    if (plan == nullptr && config_.prune.mode != PruneConfig::Mode::Off) {
        RcaPruner pruner(profile_, config_.prune, config_.rca);
        computed = pruner.plan(
            traces, slos,
            in.signals != nullptr ? *in.signals : PruneSignals{});
        plan = &computed;
    }
    SLEUTH_ASSERT(plan == nullptr ||
                      (plan->keep.size() == n &&
                       plan->inheritFrom.size() == n &&
                       plan->restricted.size() == n &&
                       plan->candidates.size() == n),
                  "prune plan / trace count mismatch");
    auto allowedFor = [&](size_t i) -> const std::vector<std::string> * {
        return plan != nullptr && plan->restricted[i] ? &plan->candidates[i]
                                                      : nullptr;
    };
    std::vector<size_t> kept;
    kept.reserve(n);
    std::vector<uint64_t> candHashes(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (plan != nullptr && !plan->keep[i])
            continue;
        kept.push_back(i);
        if (allowedFor(i) != nullptr)
            candHashes[i] = candidateHash(*allowedFor(i));
    }
    if (plan != nullptr) {
        static obs::Counter &pruned = obs::counter(
            "sleuth_pipeline_pruned_traces_total",
            "Traces whose verdict was inherited from a prune exemplar");
        pruned.add(n - kept.size());
    }
    Engine engine(*this);

    // Content fingerprints drive every cache key; the whole-batch fast
    // path makes an unchanged snapshot cost one hash pass + one lookup.
    // A pruned trace enters the batch key through its exemplar alone.
    std::vector<uint64_t> fps(cache != nullptr ? n : 0);
    uint64_t batchKey = 0;
    if (cache != nullptr) {
        engine.pool.parallelFor(kept.size(), [&](size_t k, size_t) {
            fps[kept[k]] = PipelineCache::fingerprint(traces[kept[k]]);
        });
        cache->beginBatch();
        batchKey = hashCombine(0x5ba7c45eull, n);
        for (size_t i = 0; i < n; ++i) {
            if (plan != nullptr && !plan->keep[i]) {
                batchKey = hashCombine(
                    batchKey, static_cast<uint64_t>(plan->inheritFrom[i]));
                continue;
            }
            batchKey = hashCombine(batchKey, fps[i]);
            batchKey =
                hashCombine(batchKey, static_cast<uint64_t>(slos[i]));
            batchKey = hashCombine(batchKey, candHashes[i]);
        }
        if (plan != nullptr)
            for (size_t v : {plan->tracesTotal, plan->tracesKept,
                             plan->servicesTotal, plan->servicesKept})
                batchKey = hashCombine(batchKey, v);
        if (const PipelineResult *hit = cache->lookupBatch(batchKey))
            return *hit;
    }

    // Validate every kept trace, encoding its span set in the same pass
    // when the pipeline builds its own weighted-Jaccard matrix (paper
    // Eq. 1). A cached encoding implies the trace was well-formed when
    // it was stored, so hits skip validation too.
    const bool encode = config_.clustering && in.distance == nullptr;
    std::vector<std::string> errors(n);
    std::vector<distance::WeightedSpanSet> sets(encode ? n : 0);
    std::vector<uint32_t> encIds(encode && cache != nullptr ? n : 0);
    std::vector<char> fromCache(n, 0);
    if (encode && cache != nullptr)
        for (size_t i : kept)
            if (const distance::WeightedSpanSet *hit = cache->lookupEncoding(
                    traces[i].traceId, fps[i], &encIds[i])) {
                sets[i] = *hit;
                fromCache[i] = 1;
            }
    {
        obs::ScopedTimer timer(stageHistogram(Stage::Encode));
        engine.pool.parallelFor(kept.size(), [&](size_t k, size_t) {
            const size_t i = kept[k];
            if (fromCache[i])
                return;
            trace::TraceGraph g;
            std::string err;
            if (!trace::TraceGraph::tryBuild(traces[i], &g, &err))
                errors[i] = err;
            else if (encode)
                sets[i] = distance::encodeSpanSet(traces[i], g,
                                                  config_.distanceOpts);
        });
    }
    if (encode && cache != nullptr)
        for (size_t i : kept)
            if (!fromCache[i] && errors[i].empty())
                cache->storeEncoding(traces[i].traceId, fps[i], sets[i],
                                     &encIds[i]);

    // Compact once: pruned and malformed traces leave together, so
    // neither distorts clustering. Row r below is trace rows[r].
    std::vector<size_t> rows;
    rows.reserve(kept.size());
    for (size_t i : kept)
        if (errors[i].empty())
            rows.push_back(i);
    const size_t m = rows.size();

    distance::DistanceMatrix own;
    const distance::DistanceMatrix *dist = &own;
    if (encode) {
        std::vector<distance::WeightedSpanSet> rowSets;
        std::vector<uint32_t> rowIds;
        rowSets.reserve(m);
        for (size_t i : rows) {
            rowSets.push_back(std::move(sets[i]));
            if (cache != nullptr)
                rowIds.push_back(encIds[i]);
        }
        obs::ScopedTimer timer(stageHistogram(Stage::Distance));
        own = cachedDistanceMatrix(rowSets, rowIds, cache, engine.pool);
    } else if (config_.clustering && m == n) {
        dist = in.distance;
    } else if (config_.clustering) {
        own = distance::DistanceMatrix::compute(
            m, [&](size_t a, size_t b) {
                return in.distance->at(rows[a], rows[b]);
            });
    }

    // With clustering off every row is noise and takes the individual
    // path below.
    cluster::ClusterResult clusters;
    clusters.labels.assign(m, -1);
    if (config_.clustering && m > 0) {
        obs::ScopedTimer timer(stageHistogram(Stage::Cluster));
        clusters = config_.algorithm == PipelineConfig::Algorithm::Hdbscan
                       ? cluster::hdbscan(*dist, config_.hdbscan)
                       : cluster::dbscan(*dist, config_.dbscan);
    }
    const size_t numClusters = static_cast<size_t>(clusters.numClusters);

    // Fills slot(k) with the verdict for trace idx[k]: verdicts
    // memoized by the cache first, serially; then only the misses run
    // the model, in parallel into their preallocated slots, so the
    // output is identical at any thread count. Returns the miss count.
    auto rcaAll = [&](const std::vector<size_t> &idx, auto slot) {
        std::vector<size_t> miss;
        for (size_t k = 0; k < idx.size(); ++k) {
            const size_t i = idx[k];
            if (const RcaResult *hit =
                    cache != nullptr
                        ? cache->lookupVerdict(traces[i].traceId, fps[i],
                                               slos[i], candHashes[i])
                        : nullptr)
                slot(k) = *hit;
            else
                miss.push_back(k);
        }
        engine.pool.parallelFor(miss.size(), [&](size_t q, size_t w) {
            const size_t i = idx[miss[q]];
            slot(miss[q]) =
                engine.rcaFor(w).analyze(traces[i], slos[i], allowedFor(i));
        });
        if (cache != nullptr)
            for (size_t k : miss) {
                const size_t i = idx[k];
                cache->storeVerdict(traces[i].traceId, fps[i], slos[i],
                                    candHashes[i], slot(k));
            }
        return miss.size();
    };

    // One RCA per cluster representative (geometric median), whose
    // verdict its members inherit unless they sit farther from it than
    // the guard allows; then one per noise trace and far member.
    PipelineResult out;
    out.perTrace.resize(n);
    out.clusterLabels.assign(n, -1);
    size_t executed = 0;
    {
        obs::ScopedTimer timer(stageHistogram(Stage::Rca));
        std::vector<size_t> reps =
            numClusters > 0 ? cluster::selectRepresentatives(
                                  clusters.labels, clusters.numClusters,
                                  *dist)
                            : std::vector<size_t>{};
        std::vector<size_t> repTraces(numClusters);
        for (size_t c = 0; c < numClusters; ++c)
            repTraces[c] = rows[reps[c]];
        std::vector<RcaResult> repVerdicts(numClusters);
        executed += rcaAll(repTraces, [&](size_t c) -> RcaResult & {
            return repVerdicts[c];
        });

        std::vector<size_t> rest;
        for (size_t r = 0; r < m; ++r) {
            const int c = clusters.labels[r];
            if (c < 0 ||
                (config_.maxRepresentativeDistance > 0.0 &&
                 r != reps[static_cast<size_t>(c)] &&
                 dist->at(r, reps[static_cast<size_t>(c)]) >
                     config_.maxRepresentativeDistance))
                rest.push_back(rows[r]);
            else
                out.perTrace[rows[r]] = repVerdicts[static_cast<size_t>(c)];
        }
        executed += rcaAll(rest, [&](size_t k) -> RcaResult & {
            return out.perTrace[rest[k]];
        });
        out.rcaInvocations = numClusters + rest.size();
    }

    // Scatter back once: labels, then malformed traces, then pruned
    // traces (which copy their exemplar's verdict and label).
    out.numClusters = clusters.numClusters;
    out.distanceEvaluations =
        config_.clustering && m > 1 ? m * (m - 1) / 2 : 0;
    for (size_t r = 0; r < m; ++r)
        out.clusterLabels[rows[r]] = clusters.labels[r];
    for (size_t i : kept)
        if (!errors[i].empty()) {
            out.perTrace[i] = errorVerdict(errors[i]);
            ++out.skippedTraces;
        }
    if (plan != nullptr) {
        for (size_t i = 0; i < n; ++i) {
            if (plan->keep[i])
                continue;
            const int ex = plan->inheritFrom[i];
            SLEUTH_ASSERT(ex >= 0 && static_cast<size_t>(ex) < n &&
                              plan->keep[static_cast<size_t>(ex)],
                          "pruned trace must inherit from a kept exemplar");
            out.perTrace[i] = out.perTrace[static_cast<size_t>(ex)];
            out.clusterLabels[i] =
                out.clusterLabels[static_cast<size_t>(ex)];
            ++out.prunedTraces;
        }
        out.pruneTraceKeepRatio = plan->traceKeepRatio();
        out.pruneServiceKeepRatio = plan->serviceKeepRatio();
    }
    static obs::Counter &rcaRuns = obs::counter(
        "sleuth_pipeline_rca_invocations_total",
        "Counterfactual RCA analyses run");
    static obs::Counter &skipped = obs::counter(
        "sleuth_pipeline_skipped_traces_total",
        "Malformed traces skipped by analysis batches");
    rcaRuns.add(executed);
    skipped.add(out.skippedTraces);
    if (cache != nullptr)
        cache->storeBatch(batchKey, out);
    return out;
}

std::vector<std::pair<std::string, size_t>>
aggregateRootCauses(const PipelineResult &result)
{
    // std::map keeps services sorted, so equal vote counts resolve
    // lexicographically after the stable sort below.
    std::map<std::string, size_t> votes;
    for (const RcaResult &r : result.perTrace)
        for (const std::string &svc : r.services)
            ++votes[svc];
    std::vector<std::pair<std::string, size_t>> ranked(votes.begin(),
                                                       votes.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return ranked;
}

} // namespace sleuth::core

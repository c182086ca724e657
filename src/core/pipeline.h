#pragma once

/**
 * @file
 * The end-to-end Sleuth pipeline (paper §3.1) behind one entry point,
 * SleuthPipeline::analyze. A batch of anomalous traces runs one flow:
 * validate each trace, drop malformed and pruned traces in one
 * compaction, encode span sets and build the weighted-Jaccard distance
 * matrix, cluster with HDBSCAN (or DBSCAN), run the counterfactual RCA
 * once per cluster representative (geometric median) and individually
 * for noise traces, and generalize each representative's verdict to
 * its cluster. Clustering cuts ML inference by orders of magnitude
 * during incident storms.
 *
 * AnalysisInputs carries the optional per-batch extras (DESIGN.md
 * §3.14): detector signals and an explicit plan for the interpretable
 * pre-pruning stage (RcaPruner), the cross-poll incremental cache
 * (PipelineCache), and a caller-built distance matrix that replaces
 * the Jaccard matrix (e.g. an embedding distance for comparison).
 */

#include <string>
#include <utility>
#include <vector>

#include "cluster/hdbscan.h"
#include "core/counterfactual.h"
#include "core/pruner.h"
#include "distance/distance_matrix.h"
#include "distance/trace_distance.h"

namespace sleuth::core {

class PipelineCache;

/** Pipeline knobs. */
struct PipelineConfig
{
    /** Clustering algorithm choice. */
    enum class Algorithm { Hdbscan, Dbscan };

    /** Cluster before RCA (disable to analyze every trace). */
    bool clustering = true;
    /** HDBSCAN (paper §3.3.2) or plain DBSCAN (paper §3.1). */
    Algorithm algorithm = Algorithm::Hdbscan;
    /** HDBSCAN parameters (paper defaults 10 / 5 / epsilon). */
    cluster::HdbscanParams hdbscan{10, 5, 0.05};
    /** DBSCAN parameters (used when algorithm == Dbscan). */
    cluster::DbscanParams dbscan{0.3, 4};
    /** Span-identifier options for the trace distance. */
    distance::SpanSetOptions distanceOpts;
    /** RCA knobs. */
    RcaParams rca;
    /** Pre-pruning stage (off by default; DESIGN.md §3.14). */
    PruneConfig prune;
    /**
     * Members farther than this from their cluster's representative
     * fall back to individual RCA instead of inheriting its verdict
     * (bounds the damage of an impure cluster; 0 disables).
     */
    double maxRepresentativeDistance = 0.6;
    /**
     * Worker threads for span-set encoding, distance-matrix
     * construction, and the RCA loops. 0 = hardware concurrency,
     * 1 = fully serial (no threads spawned). Results are bitwise
     * identical at every setting (DESIGN.md §3.8).
     */
    size_t numThreads = 1;
};

/** Result of a pipeline run over a batch of anomalous traces. */
struct PipelineResult
{
    /** Per-input-trace RCA verdicts (cluster members share one). */
    std::vector<RcaResult> perTrace;
    /** Cluster label per trace; -1 = analyzed individually. */
    std::vector<int> clusterLabels;
    /** Number of clusters formed. */
    int numClusters = 0;
    /**
     * Counterfactual RCA verdicts the batch logically required
     * (representatives + individually analyzed traces). A warm
     * incremental cache satisfies some from memory without running the
     * model — PipelineCache::Stats holds the executed/hit split — so
     * this count is identical between a cold and a warm run of the
     * same batch (part of the incremental-repoll ≡ guarantee).
     */
    size_t rcaInvocations = 0;
    /**
     * Pairwise distance evaluations performed for this batch: exactly
     * m(m-1)/2 over the m well-formed traces when clustering ran (the
     * matrix is computed once and memoized), 0 when clustering was
     * disabled. Malformed and pruned traces never count, even when a
     * caller-built matrix covers their rows.
     */
    size_t distanceEvaluations = 0;
    /**
     * Traces skipped because TraceGraph::tryBuild rejected them
     * (cycle, missing/duplicate root, unresolved parentSpanId, ...).
     * Each carries an RcaResult with a non-empty error and cluster
     * label -1; well-formed traces in the same batch are unaffected.
     */
    size_t skippedTraces = 0;
    /** Traces not analyzed (verdict inherited from a prune exemplar). */
    size_t prunedTraces = 0;
    /** Fraction of traces that went through the full pipeline. */
    double pruneTraceKeepRatio = 1.0;
    /** Fraction of candidate services that survived pruning. */
    double pruneServiceKeepRatio = 1.0;
};

/**
 * Rank root-cause services across a batch result by verdict votes: a
 * service earns one vote per trace whose verdict lists it. Ties break
 * lexicographically, so the ranking is a deterministic function of the
 * result. Used by the online serving layer to headline incidents.
 */
std::vector<std::pair<std::string, size_t>>
aggregateRootCauses(const PipelineResult &result);

/**
 * Optional per-batch inputs to SleuthPipeline::analyze. Every pointer
 * may be null and must outlive the call.
 */
struct AnalysisInputs
{
    /** Per-endpoint detector signals for the prune planner. */
    const PruneSignals *signals = nullptr;
    /**
     * An explicit prune plan (normally RcaPruner's over this batch);
     * when null, one is computed if config.prune.mode is not Off.
     * Pruned traces skip the pipeline and inherit their exemplar's
     * verdict and cluster label; restricted traces run the RCA over
     * their reduced candidate set.
     */
    const PrunePlan *plan = nullptr;
    /**
     * Cross-poll incremental cache: encodings, distances, and verdicts
     * memoized from previous polls are reused and fresh ones inserted.
     * It must always be paired with the same pipeline configuration,
     * and cannot be combined with a caller-built distance matrix.
     */
    PipelineCache *cache = nullptr;
    /**
     * Caller-built distance matrix over every input trace, used for
     * clustering, representative selection, and the far-member guard
     * instead of the weighted-Jaccard matrix. Rows of malformed and
     * pruned traces are dropped before clustering. Ignored when
     * clustering is off.
     */
    const distance::DistanceMatrix *distance = nullptr;
};

/** The trace-storm-scale RCA front end. */
class SleuthPipeline
{
  public:
    /** All components are held by reference and must outlive this. */
    SleuthPipeline(const SleuthGnn &model, FeatureEncoder &encoder,
                   const NormalProfile &profile, PipelineConfig config);

    /**
     * Analyze a batch of anomalous traces. Results are bitwise
     * identical at any thread count and with or without the cache.
     *
     * @param traces the anomalous traces
     * @param slos per-trace latency SLO in microseconds
     * @param in optional prune, cache, and distance inputs
     */
    PipelineResult analyze(const std::vector<trace::Trace> &traces,
                           const std::vector<int64_t> &slos,
                           const AnalysisInputs &in = {}) const;

  private:
    /**
     * Per-batch parallel engine: a thread pool plus one
     * CounterfactualRca (and FeatureEncoder, whose embedding cache is
     * the only shared mutable state) per worker. Defined in the .cc.
     */
    struct Engine;

    const SleuthGnn &model_;
    FeatureEncoder &encoder_;
    const NormalProfile &profile_;
    PipelineConfig config_;
};

} // namespace sleuth::core

#pragma once

/**
 * @file
 * Root cause analysis with counterfactual queries (paper §3.5).
 *
 * A counterfactual query asks: would this trace still violate its SLO
 * if a chosen set of services were restored to their normal state
 * (exclusive durations at their medians, exclusive errors cleared)?
 * Sleuth ranks candidate services by their aggregate exclusive error
 * count and excess exclusive duration, then iteratively restores them
 * until the trace is predicted normal; the restored services are the
 * root causes. Each query re-evaluates only the restored spans and
 * their ancestor chains against the memoized baseline prediction
 * (SleuthGnn::propagateFrom, exact against a full bottom-up pass).
 * Root-cause pods, nodes, and containers follow from the span resource
 * attributes of the implicated services.
 */

#include <set>
#include <string>
#include <vector>

#include "core/gnn.h"

namespace sleuth::core {

/** RCA knobs. */
struct RcaParams
{
    /** Predicted root error probability treated as anomalous. */
    double errorThreshold = 0.5;
    /**
     * Scale the SLO test by the model's reconstruction bias on the
     * analyzed trace (off = compare raw predictions against the SLO;
     * kept as a switch for the ablation study).
     */
    bool biasCorrection = true;
    /** Give up after restoring this many services. */
    size_t maxRootCauses = 5;
    /**
     * Multiplicative slack on the bias-corrected SLO test: residual
     * model error after bias correction would otherwise keep marginal
     * traces "abnormal" forever and pile up false positives.
     */
    double sloSlack = 1.15;
    /**
     * Weight of one exclusive error in the candidate ranking,
     * expressed as equivalent microseconds of excess duration; 0 uses
     * the trace's SLO.
     */
    double errorWeightUs = 0.0;
};

/** Output of one RCA query. */
struct RcaResult
{
    /** Predicted root-cause services, in restoration order. */
    std::vector<std::string> services;
    /** Pods hosting the implicated services in this trace. */
    std::set<std::string> pods;
    /** Nodes hosting the implicated services in this trace. */
    std::set<std::string> nodes;
    /** Containers hosting the implicated services in this trace. */
    std::set<std::string> containers;
    /** Counterfactual iterations executed. */
    size_t iterations = 0;
    /** True when restoring the services made the trace normal. */
    bool resolved = false;
    /**
     * Non-empty when the trace could not be analyzed at all (malformed
     * input skipped by the pipeline: cycle, missing root, unresolved
     * parentSpanId, ...). All other fields are empty/false then.
     */
    std::string error;
};

/** One candidate service and its interpretable suspicion score. */
struct CandidateScore
{
    std::string service;
    double score = 0.0;
};

/**
 * Rank a trace's candidate root-cause services by aggregate exclusive
 * error count and excess exclusive duration (§3.5) — the exact list
 * the counterfactual restoration loop iterates, nonpositive scores
 * dropped, ties broken lexicographically. Exposed so the RcaPruner can
 * compute a candidate set that is by construction a superset of every
 * service the RCA could restore (the conservative-mode guarantee,
 * DESIGN.md §3.14).
 *
 * @param err_weight microseconds of excess duration one exclusive
 *        error is worth (RcaParams::errorWeightUs resolution applied
 *        by the caller)
 */
std::vector<CandidateScore>
rankCandidateServices(const trace::Trace &trace,
                      const trace::TraceGraph &graph,
                      const trace::ExclusiveMetrics &metrics,
                      const NormalProfile &profile, double err_weight);

/** Counterfactual root cause analyzer. */
class CounterfactualRca
{
  public:
    /**
     * @param model trained Sleuth GNN (held by reference)
     * @param encoder feature encoder (shared embedding cache)
     * @param profile normal-state profile for interventions
     * @param params RCA knobs
     */
    CounterfactualRca(const SleuthGnn &model, FeatureEncoder &encoder,
                      const NormalProfile &profile,
                      RcaParams params = {});

    /**
     * Locate the root causes of an anomalous trace.
     *
     * @param trace the anomalous trace
     * @param slo_us the latency SLO the trace is held against
     * @param allowed optional sorted candidate filter (RcaPruner): the
     *        restoration loop only considers services in the list.
     *        nullptr = every ranked candidate is eligible. A filter
     *        containing every positively-scored candidate reproduces
     *        the unfiltered verdict exactly (DESIGN.md §3.14).
     */
    RcaResult analyze(const trace::Trace &trace, int64_t slo_us,
                      const std::vector<std::string> *allowed =
                          nullptr) const;

  private:
    const SleuthGnn &model_;
    FeatureEncoder &encoder_;
    const NormalProfile &profile_;
    RcaParams params_;
};

} // namespace sleuth::core

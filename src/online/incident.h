#pragma once

/**
 * @file
 * Incident records of the online serving layer.
 *
 * On storm onset the service snapshots the sliding window's traces —
 * every anomalous trace plus a deterministic sample of normal ones —
 * and runs the batch SleuthPipeline incident-scoped over the anomalous
 * subset. The incident carries the full lifecycle (Open → Analyzed →
 * Resolved), the snapshot, the per-trace verdicts, the aggregated
 * root-cause ranking, and the latency accounting the serving bench
 * reports (detection latency in event time, RCA latency in wall time).
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "trace/trace.h"
#include "util/binary.h"
#include "util/json.h"

namespace sleuth::online {

/** One detected anomaly storm and its incident-scoped RCA. */
struct Incident
{
    enum class State { Open, Analyzed, Resolved };

    size_t id = 0;
    State state = State::Open;

    /** Watermark at storm onset. */
    int64_t openedAtUs = 0;
    /** Watermark at which every storming endpoint had cleared. */
    int64_t resolvedAtUs = 0;
    /** Endpoints whose storms are attributed to this incident. */
    std::vector<std::string> endpoints;

    /** Snapshot window [windowStartUs, windowEndUs). */
    int64_t windowStartUs = 0;
    int64_t windowEndUs = 0;
    /**
     * Largest store record id admitted before the snapshot was taken.
     * Traces that finish assembling after analysis may still land
     * inside the time window; filtering a store query by
     * `record.id <= snapshotMaxRecordId` reconstructs the exact record
     * set the incident-scoped RCA saw (the online/batch differential
     * relies on this).
     */
    size_t snapshotMaxRecordId = 0;

    /** Snapshot: every anomalous trace of the window, canonical order
        (root start, then traceId). */
    std::vector<trace::Trace> anomalousTraces;
    std::vector<int64_t> slos;
    /** Deterministic sample of the window's normal traces (context). */
    std::vector<trace::Trace> normalSample;
    /** Normal traces considered for the sample (admission counter). */
    size_t normalsConsidered = 0;

    /** Incident-scoped pipeline result over anomalousTraces. */
    core::PipelineResult rca;
    /** Root-cause services ranked by per-trace verdict votes. */
    std::vector<std::pair<std::string, size_t>> rankedRootCauses;

    /** Onset watermark minus the earliest anomalous root start. */
    int64_t detectionLatencyUs = 0;
    /** Wall-clock time the incident-scoped RCA took. */
    double rcaMillis = 0.0;
};

/** Render a lifecycle state. */
const char *toString(Incident::State s);

/** Serialize an incident (traces reduced to ids; verdicts inline). */
util::Json toJson(const Incident &incident);

/**
 * Serialize the complete incident — lifecycle, trace snapshots, the
 * full pipeline result, ranking, latency accounting — for the durable
 * store (DESIGN.md §3.15). Recovery restores incidents verbatim from
 * these records instead of re-running the RCA, so a recovered daemon
 * reports bitwise-identical verdicts without the model loaded.
 */
void encodeIncident(util::BinaryWriter &w, const Incident &incident);

/** Inverse of encodeIncident(); false on short/invalid input. */
bool decodeIncident(util::BinaryReader &r, Incident *incident);

/** Size of the smallest encoded incident (every list empty, every
    string blank): the per-element bound on a decoded incident count. */
constexpr size_t kMinEncodedIncidentBytes = 157;

} // namespace sleuth::online

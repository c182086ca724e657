#pragma once

/**
 * @file
 * The online serving layer (DESIGN.md §3.10, §3.13): streaming span
 * ingestion, sliding-window storm detection, and incident-scoped RCA,
 * glued into one service.
 *
 * Ingestion is sharded by hash(traceId) so concurrent collector threads
 * contend only per shard; the shard count is a configuration constant —
 * NOT the thread count — so the same span stream lands in the same
 * shards no matter how many threads deliver it. Each shard's front end
 * is a bounded MPSC ring buffer (util::MpscRing): ingest() hashes the
 * trace id once, routes, and enqueues — producers never take a lock
 * and never run the assembler. All evaluation happens at explicit
 * poll(nowUs) points: each shard's ring is drained in one batch,
 * canonically re-sorted by event time (the ring interleaves producer
 * streams nondeterministically), optionally shed down to the per-poll
 * budget by the configured policy, and fed to that shard's assembler
 * in bulk; completed traces are merged into one canonically sorted
 * batch, stored (under the retention policy bounding memory), folded
 * into the storm detector, and the detector's window verdicts drive
 * the incident lifecycle (Open → Analyzed → Resolved). On storm onset
 * the service snapshots the detection window from the store — every
 * anomalous trace plus a deterministic bottom-k-by-hash sample of
 * normal traces — and runs the batch SleuthPipeline over the anomalous
 * subset.
 *
 * Backpressure is two-tiered (DESIGN.md §3.13). The deterministic
 * tier is poll-side: when a drained batch exceeds shedBudgetSpans,
 * the shed policy picks the survivors as a pure function of the event
 * multiset (drop-newest / drop-oldest by event end time, sample by
 * trace-id hash), so shed decisions are identical at any producer
 * thread count. The last-resort tier is enqueue-side: a physically
 * full ring drops the incoming span on the producer thread (counted
 * ring-full); only the count — not the victim set — is deterministic
 * there, and it is only reachable when one poll interval's offered
 * load exceeds the ring capacity.
 *
 * Determinism contract: for a fixed configuration and span multiset
 * partitioned into the same poll intervals — and offered load within
 * the ring capacity — the stored records, the incidents, and every
 * verdict within them are bitwise identical regardless of ingest
 * thread count or per-thread arrival interleaving, for every shed
 * policy. The online/batch differential campaign invariant and the
 * 1/2/8-thread service test pin this.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "core/pipeline_cache.h"
#include "online/assembler.h"
#include "online/detector.h"
#include "online/durable_state.h"
#include "online/incident.h"
#include "storage/trace_store.h"
#include "util/binary.h"
#include "util/json.h"
#include "util/mpsc_ring.h"

namespace sleuth::online {

/** Workload metadata of one endpoint (root "service/operation"). */
struct EndpointProfile
{
    /** Latency SLO against which traces are judged (0 = unknown). */
    int64_t sloUs = 0;
    /** Operation flow behind the endpoint (-1 = unknown). */
    int flowIndex = -1;
};

/**
 * Load-shedding policy applied poll-side when a shard's drained batch
 * exceeds the per-poll budget. All three are deterministic functions
 * of the event multiset (never of producer interleaving):
 *  - DropNewest keeps the budget's worth of earliest events (by span
 *    end time) and sheds the newest tail;
 *  - DropOldest keeps the newest events and sheds the oldest head —
 *    the freshest data survives a burst;
 *  - Sample keeps the bottom-budget entries by trace-id hash, which
 *    is trace-coherent (a trace's spans share the hash, so whole
 *    traces survive or go together) and uniform across trace ids.
 */
enum class ShedPolicy { DropNewest, DropOldest, Sample };

/** Render a shed policy name ("drop-newest" / "drop-oldest" /
    "sample"). */
const char *toString(ShedPolicy p);

/** Parse a shed policy name; false when unrecognized. */
bool shedPolicyFromString(std::string_view name, ShedPolicy *out);

/** Online serving knobs. */
struct OnlineConfig
{
    AssemblerConfig assembler;
    DetectorConfig detector;
    core::PipelineConfig pipeline;
    storage::RetentionConfig retention;
    /**
     * Ingest shard count. Fixed by configuration — independent of how
     * many threads call ingest() — so sharding never perturbs results.
     */
    size_t ingestShards = 4;
    /**
     * Per-shard MPSC ring capacity in spans (rounded up to a power of
     * two). Bounds ingest-path memory; a poll interval offering more
     * spans than this to one shard hits the enqueue-side ring-full
     * drop. Sized so that in normal operation a poll always drains
     * the ring before it wraps.
     */
    size_t ringCapacitySpans = 1 << 16;
    /**
     * Per-shard per-poll admitted span budget (0 = unlimited). When a
     * drained batch exceeds it, shedPolicy picks the survivors
     * deterministically and the rest are counted as shed drops.
     */
    size_t shedBudgetSpans = 0;
    /** Policy picking shed survivors (see ShedPolicy). */
    ShedPolicy shedPolicy = ShedPolicy::DropNewest;
    /** Normal traces sampled into an incident snapshot (context). */
    size_t normalSampleSize = 16;
    /**
     * Memoize span-set encodings, distance-matrix pairs, and RCA
     * verdicts across incident analyses (DESIGN.md §3.14). Incident
     * snapshots of a persisting storm overlap heavily between polls;
     * the cache recomputes only the delta while keeping every verdict
     * bitwise identical to a full recompute (the incremental-repoll
     * campaign invariant pins this), so it is safe to leave on.
     */
    bool incrementalCache = true;
    /** Sizing/retention of the incremental pipeline cache. */
    core::PipelineCache::Config cacheConfig;
    /**
     * Re-analyze the open incident on later polls while its storm
     * persists and new traces have been stored: the detection window
     * re-anchors at the current watermark and the snapshot is rebuilt.
     * Off by default — the incident then keeps its onset-time verdict
     * (the historical behavior).
     */
    bool reanalyzeOpenIncidents = false;
    /** Endpoint -> SLO/flow metadata; unknown endpoints get 0 / -1. */
    std::map<std::string, EndpointProfile> endpoints;
};

/** Cumulative counters of one OnlineService. */
struct OnlineStats
{
    /** Spans offered to ingest() (accepted or not). */
    size_t spansIngested = 0;
    /** Traces stored (post-assembly, post-validation). */
    size_t tracesStored = 0;
    /** Merged assembly statistics across all shards. */
    collector::CollectorStats assembly;
    /** Incident lifecycle counters. */
    size_t incidentsOpened = 0;
    size_t incidentsAnalyzed = 0;
    size_t incidentsResolved = 0;
};

/** The online serving layer. */
class OnlineService
{
  public:
    /** Model/encoder/profile are held by reference and must outlive. */
    OnlineService(const core::SleuthGnn &model,
                  core::FeatureEncoder &encoder,
                  const core::NormalProfile &profile, OnlineConfig config);

    /**
     * Ingest one span. Thread-safe and lock-free: the trace id is
     * hashed once, the event is routed to hash % ingestShards, and
     * enqueued onto that shard's bounded MPSC ring. Returns false
     * only when the ring was physically full and the span was dropped
     * on the spot (counted ring-full); admission/validation drops are
     * decided later, at poll time. The const-ref overload copies the
     * event; the rvalue overload moves it into the ring.
     */
    bool ingest(const SpanEvent &event);
    bool ingest(SpanEvent &&event);

    /**
     * Advance the clock: drain every shard's ring at nowUs (canonical
     * event-time re-sort, then shed policy, then bulk assembly),
     * store and observe the completed traces, evaluate storm windows,
     * and run the incident lifecycle. Concurrent ingest() is safe,
     * but spans the caller needs reflected at this poll must be
     * enqueued before it (callers barrier their ingest threads
     * first). Returns indices (into incidents()) of incidents whose
     * state changed during this poll.
     */
    std::vector<size_t> poll(int64_t nowUs);

    /**
     * End of stream: complete all pending traces, evaluate, then
     * advance the watermark past every detection window so open storms
     * observe the silence, clear, and resolve their incident.
     */
    std::vector<size_t> drainAll(int64_t nowUs);

    /** All incidents, in open order. */
    const std::vector<Incident> &
    incidents() const
    {
        return state_.incidents;
    }

    /** The backing trace store (snapshot queries, tests, tools). */
    const storage::TraceStore &store() const { return state_.store; }

    /** Current watermark (event time). */
    int64_t watermarkUs() const { return state_.watermarkUs; }

    /** Assembly backlog across shards (spans). */
    size_t backlogSpans() const;

    /** Cumulative counters (assembly stats merged across shards). */
    OnlineStats stats() const;

    /** Render stats + incident summaries for tools. */
    util::Json statsJson() const;

    /** SLO/flow metadata of an endpoint (default profile if unknown). */
    EndpointProfile profileFor(const std::string &endpoint) const;

    /** The incremental pipeline cache (hit/miss/invalidation stats). */
    const core::PipelineCache &cache() const { return cache_; }

    /**
     * Attach a durable store (DESIGN.md §3.15): recover whatever the
     * data directory holds (newest valid snapshot + committed WAL
     * polls), install the recovered state, and open the log for
     * appending. Must be called on a fresh service, before any
     * ingest. From then on every poll seals one commit group —
     * interner delta, span batch, eviction summary, incident updates,
     * poll marker — and the configured fsync policy decides when it
     * reaches disk. Returns what the recovery did; when `!info.ok`
     * the service is left non-durable and untouched.
     */
    RecoveryInfo enableDurability(const durable::DurableConfig &cfg,
                                  const RecoverOptions &opts = {});

    /**
     * Snapshot the full serving state now and compact the log: writes
     * snap-(k+1), rotates to segment k+1, deletes everything older.
     * Also runs automatically every `snapshotEveryPolls` commits.
     */
    bool snapshotNow(std::string *err = nullptr);

    /** True when a durable log is attached. */
    bool durable() const { return durable_log_ != nullptr; }

    /** Exact serving-state fingerprint (recovery equality checks). */
    uint64_t servingFingerprint() const;

  private:
    /** One ring entry: the event plus its precomputed trace-id hash
        (computed once in ingest(), reused by the sample policy). */
    struct RingEntry
    {
        SpanEvent event;
        uint64_t traceHash = 0;
    };

    struct Shard
    {
        /** Producer side: lock-free ring + relaxed counters. */
        util::MpscRing<RingEntry> ring;
        std::atomic<size_t> spansOffered{0};
        std::atomic<size_t> ringFullDrops{0};
        /**
         * Consumer side, guarded by mu: mu serializes poll()'s drain/
         * assembly against concurrent stats()/backlogSpans() readers.
         * ingest() never takes it.
         */
        std::mutex mu;
        SpanAssembler assembler;
        /** Poll-side drop accounting (shed + flushed ring-full). */
        collector::CollectorStats ringStats;
        /** Ring-full count already folded into ringStats. */
        size_t ringFullFlushed = 0;
        /** Scratch batch, reused across polls (capacity persists). */
        std::vector<RingEntry> batch;

        Shard(const AssemblerConfig &config, size_t ring_capacity)
            : ring(ring_capacity), assembler(config)
        {
        }
    };

    static size_t shardIndex(uint64_t hash, size_t shard_count);

    /** Drain, canonically sort, shed, and assemble one shard's ring;
        append completed traces to *completed (under shard.mu). */
    void drainShard(Shard *shard, int64_t nowUs,
                    std::vector<trace::Trace> *completed,
                    size_t *pending_spans, size_t *pending_traces);

    /** Store + observe one batch of completed traces (sorted). */
    void absorb(std::vector<trace::Trace> traces);

    /** Evaluate storms at the watermark; drive incident lifecycle. */
    std::vector<size_t> evaluate(int64_t watermark_us);

    /**
     * Snapshot the detection window anchored at watermark_us and run
     * incident-scoped RCA. Re-entrant for one incident: a later call
     * (reanalyzeOpenIncidents) clears the previous snapshot and
     * rebuilds it over the slid window.
     */
    void analyzeIncident(Incident *incident, int64_t watermark_us);

    /** Seal and (per policy) fsync this poll's WAL commit group. */
    void commitPoll(const std::vector<size_t> &changed);

    OnlineConfig config_;
    core::SleuthPipeline pipeline_;
    core::PipelineCache cache_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /**
     * Everything the durable layer checkpoints and rebuilds: store,
     * detector, incidents, watermark, and the record counters
     * (lastRecordId is the snapshot high-water mark).
     */
    DurableServingState state_;
    /** Ingest count already flushed into the obs registry (poll()). */
    size_t obs_ingested_flushed_ = 0;

    /** Durable store (null until enableDurability()). */
    std::unique_ptr<durable::DurableLog> durable_log_;
    /**
     * This poll's SpanBatch payload under construction. Records are
     * captured at insert time, not at commit: retention triggered by a
     * later insert in the same poll can evict an earlier record of the
     * poll, whose columns would be gone by commit time. Replay
     * restores all then re-applies the logged evictions — same final
     * state either way.
     */
    util::BinaryWriter poll_batch_;
    size_t poll_batch_count_ = 0;
    /** Interner size already covered by logged deltas/snapshot. */
    size_t interner_logged_ = 0;
    /** Detector advances since the last commit (see PollMarker). */
    std::vector<int64_t> pending_advances_;
    /** Commits since the last snapshot rotation. */
    uint64_t polls_since_snapshot_ = 0;
};

} // namespace sleuth::online

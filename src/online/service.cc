#include "service.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <limits>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sleuth::online {

namespace {

const trace::Span *
rootSpan(const trace::Trace &t)
{
    for (const trace::Span &s : t.spans)
        if (s.parentSpanId.empty())
            return &s;
    return nullptr;
}

} // namespace

const char *
toString(ShedPolicy p)
{
    switch (p) {
      case ShedPolicy::DropNewest: return "drop-newest";
      case ShedPolicy::DropOldest: return "drop-oldest";
      case ShedPolicy::Sample: return "sample";
    }
    util::panic("invalid shed policy");
}

bool
shedPolicyFromString(std::string_view name, ShedPolicy *out)
{
    if (name == "drop-newest") {
        *out = ShedPolicy::DropNewest;
        return true;
    }
    if (name == "drop-oldest") {
        *out = ShedPolicy::DropOldest;
        return true;
    }
    if (name == "sample") {
        *out = ShedPolicy::Sample;
        return true;
    }
    return false;
}

OnlineService::OnlineService(const core::SleuthGnn &model,
                             core::FeatureEncoder &encoder,
                             const core::NormalProfile &profile,
                             OnlineConfig config)
    : config_(std::move(config)),
      pipeline_(model, encoder, profile, config_.pipeline),
      cache_(config_.cacheConfig)
{
    state_.store = storage::TraceStore(config_.retention);
    state_.detectorConfig = config_.detector;
    state_.detector = StormDetector(config_.detector);
    SLEUTH_ASSERT(config_.ingestShards > 0,
                  "at least one ingest shard is required");
    SLEUTH_ASSERT(config_.ringCapacitySpans > 0,
                  "ring capacity must be positive");
    shards_.reserve(config_.ingestShards);
    for (size_t i = 0; i < config_.ingestShards; ++i)
        shards_.push_back(std::make_unique<Shard>(
            config_.assembler, config_.ringCapacitySpans));
}

size_t
OnlineService::shardIndex(uint64_t hash, size_t shard_count)
{
    return static_cast<size_t>(hash % shard_count);
}

EndpointProfile
OnlineService::profileFor(const std::string &endpoint) const
{
    auto it = config_.endpoints.find(endpoint);
    return it == config_.endpoints.end() ? EndpointProfile{} : it->second;
}

bool
OnlineService::ingest(const SpanEvent &event)
{
    return ingest(SpanEvent(event));
}

bool
OnlineService::ingest(SpanEvent &&event)
{
    // Hash once per event: the same value routes the shard, rides the
    // ring for the sample shed policy, and (via the store) seeds the
    // incident normal-trace sample — no re-hash on the ingest path.
    uint64_t hash = util::fnv1a(event.traceId);
    Shard &shard = *shards_[shardIndex(hash, shards_.size())];
    // The hot path only bumps relaxed shard-local counters; poll()
    // delta-flushes the sums into the obs registry (a per-span
    // counter add costs a measurable ~2% of ingest throughput).
    shard.spansOffered.fetch_add(1, std::memory_order_relaxed);
    RingEntry entry{std::move(event), hash};
    if (!shard.ring.tryPush(std::move(entry))) {
        // Physically full: last-resort enqueue-side drop. Only the
        // count is deterministic here (see file comment in service.h).
        shard.ringFullDrops.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    return true;
}

void
OnlineService::drainShard(Shard *shard, int64_t nowUs,
                          std::vector<trace::Trace> *completed,
                          size_t *pending_spans,
                          size_t *pending_traces)
{
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->batch.clear();
    shard->ring.drainInto(&shard->batch);
    std::vector<RingEntry> &batch = shard->batch;

    // The ring interleaves producer streams nondeterministically;
    // canonical event-time order restores a batch that is a pure
    // function of the event multiset before any decision is taken.
    // Duplicate deliveries tie on every key and are content-identical,
    // so an unstable sort is still deterministic.
    std::sort(batch.begin(), batch.end(),
              [](const RingEntry &a, const RingEntry &b) {
                  if (a.event.span.endUs != b.event.span.endUs)
                      return a.event.span.endUs < b.event.span.endUs;
                  if (a.event.traceId != b.event.traceId)
                      return a.event.traceId < b.event.traceId;
                  return a.event.span.spanId < b.event.span.spanId;
              });

    // Poll-side deterministic shedding: survivors are a pure function
    // of the (sorted) batch, never of producer interleaving.
    size_t begin = 0;
    size_t end = batch.size();
    size_t budget = config_.shedBudgetSpans;
    if (budget > 0 && batch.size() > budget) {
        size_t shed = batch.size() - budget;
        switch (config_.shedPolicy) {
          case ShedPolicy::DropNewest:
            end = budget; // keep the oldest events
            break;
          case ShedPolicy::DropOldest:
            begin = shed; // keep the newest events
            break;
          case ShedPolicy::Sample:
            // Bottom-budget by (traceHash, traceId, spanId):
            // trace-coherent (spans of one trace sort adjacently) and
            // uniform across trace ids. Reuses the hash computed at
            // ingest.
            std::sort(batch.begin(), batch.end(),
                      [](const RingEntry &a, const RingEntry &b) {
                          if (a.traceHash != b.traceHash)
                              return a.traceHash < b.traceHash;
                          if (a.event.traceId != b.event.traceId)
                              return a.event.traceId <
                                     b.event.traceId;
                          return a.event.span.spanId <
                                 b.event.span.spanId;
                      });
            end = budget;
            // Restore event-time order among the survivors so the
            // assembler feed stays canonical.
            std::sort(batch.begin(), batch.begin() + end,
                      [](const RingEntry &a, const RingEntry &b) {
                          if (a.event.span.endUs != b.event.span.endUs)
                              return a.event.span.endUs <
                                     b.event.span.endUs;
                          if (a.event.traceId != b.event.traceId)
                              return a.event.traceId <
                                     b.event.traceId;
                          return a.event.span.spanId <
                                 b.event.span.spanId;
                      });
            break;
        }
        shard->ringStats.countDrop(collector::DropReason::Shed, shed);
        static obs::Counter &shedCount = obs::counter(
            "sleuth_service_shed_spans_total",
            "Spans shed poll-side by the backpressure policy");
        shedCount.add(shed);
    }

    // Fold the enqueue-side ring-full drops accumulated since the
    // last poll into the shard's poll-side stats block.
    size_t ring_full =
        shard->ringFullDrops.load(std::memory_order_relaxed);
    if (ring_full > shard->ringFullFlushed) {
        shard->ringStats.countDrop(collector::DropReason::RingFull,
                                   ring_full - shard->ringFullFlushed);
        shard->ringFullFlushed = ring_full;
    }

    // Bulk-feed the survivors in canonical order, then advance the
    // assembler's watermark.
    for (size_t i = begin; i < end; ++i)
        shard->assembler.add(batch[i].event);
    batch.clear();
    std::vector<trace::Trace> done = shard->assembler.drain(nowUs);
    completed->insert(completed->end(),
                      std::make_move_iterator(done.begin()),
                      std::make_move_iterator(done.end()));
    *pending_spans += shard->assembler.pendingSpans();
    *pending_traces += shard->assembler.pendingTraces();
}

void
OnlineService::absorb(std::vector<trace::Trace> traces)
{
    for (trace::Trace &t : traces) {
        const trace::Span *root = rootSpan(t);
        // The assembler only emits TraceGraph-validated traces, which
        // always have exactly one root.
        SLEUTH_ASSERT(root != nullptr, "assembled trace lost its root");
        std::string endpoint = root->service + "/" + root->name;
        EndpointProfile prof = profileFor(endpoint);

        Observation obs;
        obs.endpoint = std::move(endpoint);
        obs.startUs = root->startUs;
        obs.durationUs = root->durationUs();
        obs.error = root->hasError();
        obs.anomalous =
            obs.error || (prof.sloUs > 0 && obs.durationUs > prof.sloUs);

        state_.lastRecordId =
            state_.store.insert(std::move(t), prof.sloUs, prof.flowIndex);
        ++state_.tracesStored;
        // Capture the record's bytes while it is guaranteed live (a
        // record is never evicted during its own insert; see the
        // poll_batch_ comment in service.h).
        if (durable_log_) {
            appendSpanBatchRecord(poll_batch_,
                                  state_.store.at(state_.lastRecordId));
            ++poll_batch_count_;
        }

        state_.detector.observe(obs);
    }
    static obs::Counter &stored = obs::counter(
        "sleuth_service_traces_stored_total",
        "Assembled traces absorbed into the online trace store");
    stored.add(traces.size());
}

std::vector<size_t>
OnlineService::poll(int64_t nowUs)
{
    std::vector<trace::Trace> completed;
    size_t pending_spans = 0;
    size_t pending_traces = 0;
    size_t ingested_total = 0;
    for (auto &shard : shards_) {
        drainShard(shard.get(), nowUs, &completed, &pending_spans,
                   &pending_traces);
        ingested_total +=
            shard->spansOffered.load(std::memory_order_relaxed);
    }
    // Amortized flush of the per-span ingest count (see ingest()).
    static obs::Counter &ingested = obs::counter(
        "sleuth_service_spans_ingested_total",
        "Spans offered to the online service (pre-admission)");
    ingested.add(ingested_total - obs_ingested_flushed_);
    obs_ingested_flushed_ = ingested_total;
    // Shards emit canonically; re-sort the merged batch so the shard
    // count never shows in downstream order.
    std::sort(completed.begin(), completed.end(),
              [](const trace::Trace &a, const trace::Trace &b) {
                  const trace::Span *ra = rootSpan(a);
                  const trace::Span *rb = rootSpan(b);
                  int64_t sa = ra ? ra->startUs : 0;
                  int64_t sb = rb ? rb->startUs : 0;
                  if (sa != sb)
                      return sa < sb;
                  return a.traceId < b.traceId;
              });
    static obs::Histogram &batch = obs::histogram(
        "sleuth_service_poll_batch_traces",
        "Traces completed per service poll");
    batch.record(static_cast<double>(completed.size()));
    absorb(std::move(completed));
    state_.watermarkUs = std::max(state_.watermarkUs,
                                  nowUs - config_.assembler.latenessUs);
    // Instantaneous health gauges, refreshed once per poll.
    static obs::Gauge &backlog = obs::gauge(
        "sleuth_service_backlog_spans",
        "Spans buffered across ingest-shard assemblers");
    static obs::Gauge &pendingTraces = obs::gauge(
        "sleuth_service_pending_traces",
        "Incomplete traces buffered across ingest shards");
    static obs::Gauge &lag = obs::gauge(
        "sleuth_service_watermark_lag_us",
        "Distance from the poll clock to the event-time watermark");
    static obs::Gauge &stored = obs::gauge(
        "sleuth_service_stored_records",
        "Trace records currently retained by the online store");
    backlog.set(static_cast<int64_t>(pending_spans));
    pendingTraces.set(static_cast<int64_t>(pending_traces));
    lag.set(nowUs - state_.watermarkUs);
    stored.set(static_cast<int64_t>(state_.store.size()));
    std::vector<size_t> changed = evaluate(state_.watermarkUs);
    if (durable_log_)
        commitPoll(changed);
    return changed;
}

std::vector<size_t>
OnlineService::drainAll(int64_t nowUs)
{
    std::vector<size_t> changed = poll(nowUs);
    std::vector<trace::Trace> completed;
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        std::vector<trace::Trace> done = shard->assembler.flush();
        completed.insert(completed.end(),
                         std::make_move_iterator(done.begin()),
                         std::make_move_iterator(done.end()));
    }
    std::sort(completed.begin(), completed.end(),
              [](const trace::Trace &a, const trace::Trace &b) {
                  const trace::Span *ra = rootSpan(a);
                  const trace::Span *rb = rootSpan(b);
                  int64_t sa = ra ? ra->startUs : 0;
                  int64_t sb = rb ? rb->startUs : 0;
                  if (sa != sb)
                      return sa < sb;
                  return a.traceId < b.traceId;
              });
    absorb(std::move(completed));
    // Evaluate at nowUs itself: the flush already forfeited lateness.
    state_.watermarkUs = std::max(state_.watermarkUs, nowUs);
    std::vector<size_t> more = evaluate(state_.watermarkUs);
    changed.insert(changed.end(), more.begin(), more.end());
    // The stream is over: advance past every detection window so the
    // storms observe the silence, clear, and resolve open incidents.
    state_.watermarkUs +=
        (static_cast<int64_t>(config_.detector.windowBuckets) + 1) *
        config_.detector.bucketUs;
    more = evaluate(state_.watermarkUs);
    changed.insert(changed.end(), more.begin(), more.end());
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    // The flush + resolution sweep is one more commit group (poll()
    // above already sealed its own). Re-logging an incident already
    // updated this call is an idempotent overwrite on replay.
    if (durable_log_)
        commitPoll(changed);
    return changed;
}

std::vector<size_t>
OnlineService::evaluate(int64_t watermark_us)
{
    // Storm hysteresis makes the flags depend on the whole advance
    // sequence, so each advance is journaled for the poll marker.
    if (durable_log_)
        pending_advances_.push_back(watermark_us);
    std::vector<StormTransition> transitions =
        state_.detector.advance(watermark_us);
    std::vector<size_t> changed;

    // At most one incident is open at a time: concurrent endpoint
    // storms are one outage seen from several endpoints.
    Incident *open = nullptr;
    size_t open_index = 0;
    if (!state_.incidents.empty() &&
        state_.incidents.back().state != Incident::State::Resolved) {
        open = &state_.incidents.back();
        open_index = state_.incidents.size() - 1;
    }

    std::vector<std::string> onsets;
    for (const StormTransition &t : transitions)
        if (t.kind == StormTransition::Kind::Onset)
            onsets.push_back(t.endpoint);

    if (!onsets.empty()) {
        if (open == nullptr) {
            Incident incident;
            incident.id = state_.incidents.size();
            incident.state = Incident::State::Open;
            incident.openedAtUs = watermark_us;
            incident.endpoints = onsets;
            state_.incidents.push_back(std::move(incident));
            open = &state_.incidents.back();
            open_index = state_.incidents.size() - 1;
            static obs::Counter &opened = obs::counter(
                "sleuth_service_incidents_total",
                "Incident lifecycle events", {{"event", "opened"}});
            opened.add();
            analyzeIncident(open, watermark_us);
            changed.push_back(open_index);
        } else {
            for (const std::string &e : onsets)
                if (std::find(open->endpoints.begin(),
                              open->endpoints.end(),
                              e) == open->endpoints.end())
                    open->endpoints.push_back(e);
            changed.push_back(open_index);
        }
    }

    // A persisting storm keeps depositing traces into the detection
    // window; optionally refresh the open incident's verdict over the
    // slid window. The incremental cache makes each refresh cost only
    // the delta since the previous snapshot.
    if (config_.reanalyzeOpenIncidents && open != nullptr &&
        open->state == Incident::State::Analyzed &&
        !state_.detector.stormingEndpoints().empty() &&
        state_.lastRecordId != open->snapshotMaxRecordId) {
        analyzeIncident(open, watermark_us);
        changed.push_back(open_index);
    }

    if (open != nullptr && state_.detector.stormingEndpoints().empty()) {
        open->state = Incident::State::Resolved;
        open->resolvedAtUs = watermark_us;
        static obs::Counter &resolved = obs::counter(
            "sleuth_service_incidents_total",
            "Incident lifecycle events", {{"event", "resolved"}});
        resolved.add();
        changed.push_back(open_index);
    }
    static obs::Gauge &openGauge = obs::gauge(
        "sleuth_service_open_incidents",
        "Incidents currently open or analyzed but unresolved");
    openGauge.set(open != nullptr &&
                          open->state != Incident::State::Resolved
                      ? 1
                      : 0);

    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()),
                  changed.end());
    return changed;
}

void
OnlineService::analyzeIncident(Incident *incident, int64_t watermark_us)
{
    // Re-analysis rebuilds the snapshot over the slid window: clear
    // everything derived from the previous one first.
    incident->anomalousTraces.clear();
    incident->slos.clear();
    incident->normalSample.clear();
    incident->normalsConsidered = 0;
    incident->rankedRootCauses.clear();

    // The detector window at watermark W covers buckets lo..hi, i.e.
    // event times [lo*bucketUs, (hi+1)*bucketUs). Snapshot exactly it.
    int64_t bucket = config_.detector.bucketUs;
    int64_t hi = watermark_us / bucket;
    if (watermark_us % bucket < 0)
        --hi;
    int64_t lo =
        hi - static_cast<int64_t>(config_.detector.windowBuckets) + 1;
    incident->windowStartUs = lo * bucket;
    incident->windowEndUs = (hi + 1) * bucket;
    // Pin the store high-water mark: traces finishing assembly after
    // this point may carry start times inside the window but were not
    // part of the snapshot. Queries filtered by id <= this reproduce it.
    incident->snapshotMaxRecordId = state_.lastRecordId;

    storage::Query q;
    q.minStartUs = incident->windowStartUs;
    q.maxStartUs = incident->windowEndUs;
    std::vector<const storage::Record *> window = state_.store.query(q);

    std::vector<const storage::Record *> normals;
    for (const storage::Record *r : window) {
        if (r->anomalous()) {
            incident->anomalousTraces.push_back(r->trace());
            incident->slos.push_back(r->sloUs);
        } else {
            normals.push_back(r);
        }
    }
    incident->normalsConsidered = normals.size();

    // Canonical snapshot order: (root start, traceId). The batch side
    // of the online/batch differential sorts identically, so HDBSCAN
    // sees the same batch order on both paths.
    std::vector<size_t> order(incident->anomalousTraces.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const trace::Trace &ta = incident->anomalousTraces[a];
        const trace::Trace &tb = incident->anomalousTraces[b];
        const trace::Span *ra = rootSpan(ta);
        const trace::Span *rb = rootSpan(tb);
        int64_t sa = ra ? ra->startUs : 0;
        int64_t sb = rb ? rb->startUs : 0;
        if (sa != sb)
            return sa < sb;
        return ta.traceId < tb.traceId;
    });
    std::vector<trace::Trace> sorted_traces;
    std::vector<int64_t> sorted_slos;
    sorted_traces.reserve(order.size());
    sorted_slos.reserve(order.size());
    for (size_t i : order) {
        sorted_traces.push_back(std::move(incident->anomalousTraces[i]));
        sorted_slos.push_back(incident->slos[i]);
    }
    incident->anomalousTraces = std::move(sorted_traces);
    incident->slos = std::move(sorted_slos);

    // Deterministic normal sample: bottom-k by (hash, traceId) — a
    // uniform reservoir-equivalent that never depends on store order.
    // The hash was computed once at store insert (Record::traceIdHash),
    // so the sort never re-hashes a record per comparison.
    if (config_.normalSampleSize > 0 && !normals.empty()) {
        std::sort(normals.begin(), normals.end(),
                  [](const storage::Record *a, const storage::Record *b) {
                      if (a->traceIdHash != b->traceIdHash)
                          return a->traceIdHash < b->traceIdHash;
                      return a->traceId() < b->traceId();
                  });
        size_t k = std::min(config_.normalSampleSize, normals.size());
        incident->normalSample.reserve(k);
        for (size_t i = 0; i < k; ++i)
            incident->normalSample.push_back(normals[i]->trace());
    }

    if (!incident->anomalousTraces.empty()) {
        const trace::Span *first = rootSpan(incident->anomalousTraces[0]);
        int64_t earliest = first ? first->startUs : 0;
        for (const trace::Trace &t : incident->anomalousTraces) {
            const trace::Span *r = rootSpan(t);
            if (r != nullptr)
                earliest = std::min(earliest, r->startUs);
        }
        incident->detectionLatencyUs = incident->openedAtUs - earliest;
    }

    // Per-endpoint anomaly signals for the pre-pruning stage, straight
    // from the detector's already-maintained window sketches (only
    // consulted when the pipeline's prune mode is on).
    core::PruneSignals signals;
    for (const std::string &e : incident->endpoints) {
        WindowStats ws = state_.detector.windowStats(e, watermark_us);
        core::EndpointSignal sig;
        sig.anomalousFraction =
            ws.count > 0 ? static_cast<double>(ws.anomalous) /
                               static_cast<double>(ws.count)
                         : 0.0;
        sig.errors = ws.errors;
        sig.p50Us = ws.p50Us;
        sig.p99Us = ws.p99Us;
        signals[e] = sig;
    }

    auto t0 = std::chrono::steady_clock::now();
    incident->rca = pipeline_.analyze(
        incident->anomalousTraces, incident->slos,
        {.signals = &signals,
         .cache = config_.incrementalCache ? &cache_ : nullptr});
    auto t1 = std::chrono::steady_clock::now();
    incident->rcaMillis =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    incident->rankedRootCauses = core::aggregateRootCauses(incident->rca);
    incident->state = Incident::State::Analyzed;
    static obs::Counter &analyzed = obs::counter(
        "sleuth_service_incidents_total", "Incident lifecycle events",
        {{"event", "analyzed"}});
    analyzed.add();
    static obs::Histogram &rcaMs = obs::histogram(
        "sleuth_service_incident_rca_ms",
        "Incident-scoped RCA wall-clock milliseconds");
    rcaMs.record(incident->rcaMillis);
}

RecoveryInfo
OnlineService::enableDurability(const durable::DurableConfig &cfg,
                                const RecoverOptions &opts)
{
    SLEUTH_ASSERT(durable_log_ == nullptr,
                  "durability is already enabled");
    SLEUTH_ASSERT(state_.tracesStored == 0 &&
                      state_.store.size() == 0 &&
                      state_.incidents.empty(),
                  "enable durability on a fresh service, before "
                  "any ingest");

    auto log = std::make_unique<durable::DurableLog>(cfg);
    durable::RecoveredLog recovered = log->recover();

    RecoveryInfo info;
    auto t0 = std::chrono::steady_clock::now();
    DurableServingState state =
        replayRecoveredLog(recovered, config_.detector, opts, &info);
    auto t1 = std::chrono::steady_clock::now();
    static obs::Histogram &recoveryMs = obs::histogram(
        "sleuth_recovery_ms",
        "Durable recovery wall-clock milliseconds (scan + replay)");
    recoveryMs.record(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (!info.ok)
        return info;

    // Install the recovered state wholesale: the replayed store owns
    // its own interner and the detector its rebuilt rings. Snapshots
    // keep recording the service's own detector configuration.
    // Eviction tracking goes on BEFORE the retention policy is
    // re-applied so a config shrink's evictions land in the first
    // commit group.
    state_ = std::move(state);
    state_.detectorConfig = config_.detector;
    state_.store.trackEvictions(true);
    state_.store.setRetention(config_.retention);
    interner_logged_ = state_.store.interner()->size();

    // Late-span semantics must survive the restart: a committed poll
    // at nowUs left every assembler's watermark at nowUs - latenessUs,
    // which is exactly the watermark the marker recorded. Seed the
    // fresh assemblers' clocks from it so a span the crashed process
    // would have rejected as late (at-least-once upstreams redeliver
    // the tail, stragglers included) is rejected identically here.
    if (state_.watermarkUs != std::numeric_limits<int64_t>::min())
        for (auto &shard : shards_)
            shard->assembler.drain(state_.watermarkUs +
                                   config_.assembler.latenessUs);

    std::string err;
    if (!log->openForAppend(recovered,
                            encodeEpochPayload(config_.detector),
                            &err)) {
        info.ok = false;
        info.error = "open for append failed: " + err;
        return info;
    }
    durable_log_ = std::move(log);
    return info;
}

bool
OnlineService::snapshotNow(std::string *err)
{
    SLEUTH_ASSERT(durable_log_ != nullptr,
                  "snapshotNow requires durability to be enabled");
    std::string payload = encodeSnapshotPayload(state_);
    std::string e;
    if (!durable_log_->rotateWithSnapshot(
            payload, encodeEpochPayload(config_.detector), &e)) {
        util::warn("snapshot rotation failed: ", e);
        if (err != nullptr)
            *err = std::move(e);
        return false;
    }
    polls_since_snapshot_ = 0;
    return true;
}

uint64_t
OnlineService::servingFingerprint() const
{
    return servingStateFingerprint(state_);
}

void
OnlineService::commitPoll(const std::vector<size_t> &changed)
{
    // One commit group, in replay order: vocabulary first (the span
    // batch's raw u32 ids reference it), then the batch, the eviction
    // summary, incident updates, and the sealing marker. The group
    // fsync (policy=group) lands on the marker via commit().
    const auto &interner = state_.store.interner();
    size_t interned = interner->size();
    if (interned > interner_logged_) {
        durable_log_->append(
            durable::RecordKind::InternerDelta,
            encodeInternerDeltaPayload(
                static_cast<uint32_t>(interner_logged_),
                interner->namesFrom(interner_logged_)));
        interner_logged_ = interned;
    }
    if (poll_batch_count_ > 0) {
        durable_log_->append(durable::RecordKind::SpanBatch,
                             poll_batch_.take());
        poll_batch_count_ = 0;
    }
    std::vector<size_t> evicted = state_.store.takeRecentEvictions();
    if (!evicted.empty())
        durable_log_->append(durable::RecordKind::Eviction,
                             encodeEvictionPayload(evicted));
    for (size_t index : changed)
        durable_log_->append(
            durable::RecordKind::IncidentUpdate,
            encodeIncidentUpdatePayload(index, state_.incidents[index]));

    PollMarkerPayload marker;
    marker.watermarkUs = state_.watermarkUs;
    marker.lastRecordId = state_.lastRecordId;
    marker.tracesStored = state_.tracesStored;
    marker.storeRecords = state_.store.size();
    marker.storeSpans = state_.store.totalSpans();
    marker.internerSize = interner->size();
    marker.advanceWatermarks = std::move(pending_advances_);
    pending_advances_.clear();
    durable_log_->append(durable::RecordKind::PollMarker,
                         encodePollMarkerPayload(marker));
    durable_log_->commit();

    ++polls_since_snapshot_;
    uint64_t every = durable_log_->config().snapshotEveryPolls;
    if (every > 0 && polls_since_snapshot_ >= every)
        snapshotNow();
}

size_t
OnlineService::backlogSpans() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        // Ring occupancy counts too: an enqueued span is buffered
        // until the next poll drains it (exact under shard.mu when
        // producers are quiescent — the barrier points callers use).
        total += shard->assembler.pendingSpans() +
                 shard->ring.sizeApprox();
    }
    return total;
}

OnlineStats
OnlineService::stats() const
{
    OnlineStats s;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        s.spansIngested +=
            shard->spansOffered.load(std::memory_order_relaxed);
        s.assembly.merge(shard->assembler.stats());
        s.assembly.merge(shard->ringStats);
        // Ring-full drops not yet folded by a poll.
        size_t ring_full =
            shard->ringFullDrops.load(std::memory_order_relaxed);
        if (ring_full > shard->ringFullFlushed) {
            size_t unflushed = ring_full - shard->ringFullFlushed;
            s.assembly.spansRejected += unflushed;
            s.assembly.droppedRingFull += unflushed;
        }
    }
    s.tracesStored = state_.tracesStored;
    for (const Incident &i : state_.incidents) {
        ++s.incidentsOpened;
        if (i.state != Incident::State::Open)
            ++s.incidentsAnalyzed;
        if (i.state == Incident::State::Resolved)
            ++s.incidentsResolved;
    }
    return s;
}

util::Json
OnlineService::statsJson() const
{
    OnlineStats s = stats();
    util::Json doc = util::Json::object();
    doc.set("spansIngested", s.spansIngested);
    doc.set("spansAccepted", s.assembly.spansAccepted);
    doc.set("spansRejected", s.assembly.spansRejected);
    doc.set("tracesAccepted", s.assembly.tracesAccepted);
    doc.set("tracesRejected", s.assembly.tracesRejected);
    doc.set("tracesStored", s.tracesStored);
    util::Json drops = util::Json::object();
    drops.set("orphan", s.assembly.droppedOrphan);
    drops.set("duplicate", s.assembly.droppedDuplicate);
    drops.set("lateAfterEviction", s.assembly.droppedLate);
    drops.set("malformed", s.assembly.droppedMalformed);
    drops.set("backpressure", s.assembly.droppedBackpressure);
    drops.set("ringFull", s.assembly.droppedRingFull);
    drops.set("shed", s.assembly.droppedShed);
    doc.set("drops", std::move(drops));
    doc.set("shedPolicy", std::string(toString(config_.shedPolicy)));
    doc.set("backlogSpans", backlogSpans());
    doc.set("watermarkUs", state_.watermarkUs);
    doc.set("storedRecords", state_.store.size());
    doc.set("storedSpans", state_.store.totalSpans());
    doc.set("evictedRecords", state_.store.evictions().records);
    doc.set("evictedSpans", state_.store.evictions().spans);
    doc.set("incidentsOpened", s.incidentsOpened);
    doc.set("incidentsAnalyzed", s.incidentsAnalyzed);
    doc.set("incidentsResolved", s.incidentsResolved);
    if (config_.incrementalCache) {
        core::PipelineCache::Stats cs = cache_.stats();
        util::Json cache = util::Json::object();
        cache.set("entries", cache_.size());
        cache.set("pairs", cache_.pairCount());
        cache.set("encodingHits", cs.encodingHits);
        cache.set("encodingMisses", cs.encodingMisses);
        cache.set("distanceHits", cs.distanceHits);
        cache.set("distanceMisses", cs.distanceMisses);
        cache.set("verdictHits", cs.verdictHits);
        cache.set("verdictMisses", cs.verdictMisses);
        cache.set("batchHits", cs.batchHits);
        cache.set("invalidations", cs.invalidations);
        cache.set("evictions", cs.evictions);
        doc.set("incrementalCache", std::move(cache));
    }
    return doc;
}

} // namespace sleuth::online

#include "durable_state.h"

#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sleuth::online {

namespace {

/** Version of every durable payload layout (epoch + snapshot). */
constexpr uint32_t kStateFormatVersion = 1;

void
encodeDetectorConfig(util::BinaryWriter &w, const DetectorConfig &c)
{
    w.i64(c.bucketUs);
    w.u64(c.windowBuckets);
    w.u64(c.minWindowCount);
    w.u64(c.minAnomalous);
    w.f64(c.onsetFraction);
    w.f64(c.clearFraction);
    w.f64(c.sketchAccuracy);
}

bool
decodeDetectorConfig(util::BinaryReader &r, DetectorConfig *c)
{
    c->bucketUs = r.i64();
    c->windowBuckets = r.u64();
    c->minWindowCount = r.u64();
    c->minAnomalous = r.u64();
    c->onsetFraction = r.f64();
    c->clearFraction = r.f64();
    c->sketchAccuracy = r.f64();
    return r.ok() && c->bucketUs > 0 && c->windowBuckets > 0 &&
           c->sketchAccuracy > 0.0 && c->sketchAccuracy < 1.0;
}

bool
sameDetectorConfig(const DetectorConfig &a, const DetectorConfig &b)
{
    return a.bucketUs == b.bucketUs &&
           a.windowBuckets == b.windowBuckets &&
           a.minWindowCount == b.minWindowCount &&
           a.minAnomalous == b.minAnomalous &&
           a.onsetFraction == b.onsetFraction &&
           a.clearFraction == b.clearFraction &&
           a.sketchAccuracy == b.sketchAccuracy;
}

bool
fail(RecoveryInfo *info, std::string msg)
{
    info->ok = false;
    info->error = std::move(msg);
    util::warn("durable recovery stopped: ", info->error);
    return false;
}

bool
decodePollMarkerPayload(std::string_view payload, PollMarkerPayload *m)
{
    util::BinaryReader r(payload);
    m->watermarkUs = r.i64();
    m->lastRecordId = r.u64();
    m->tracesStored = r.u64();
    m->storeRecords = r.u64();
    m->storeSpans = r.u64();
    m->internerSize = r.u64();
    uint32_t n = r.count(8);
    m->advanceWatermarks.clear();
    m->advanceWatermarks.reserve(n);
    for (uint32_t i = 0; i < n && r.ok(); ++i)
        m->advanceWatermarks.push_back(r.i64());
    return r.ok() && r.remaining() == 0;
}

bool
applyInternerDelta(DurableServingState &state, std::string_view payload,
                   RecoveryInfo *info)
{
    util::BinaryReader r(payload);
    uint32_t firstId = r.u32();
    uint32_t n = r.u32();
    const auto &interner = state.store.interner();
    if (!r.ok() || firstId != interner->size())
        return fail(info, "interner delta out of sequence");
    for (uint32_t i = 0; i < n; ++i) {
        std::string s = r.str();
        if (!r.ok())
            return fail(info, "short interner delta");
        if (interner->intern(s) != firstId + i)
            return fail(info, "interner replay id mismatch");
    }
    if (r.remaining() != 0)
        return fail(info, "trailing bytes in interner delta");
    return true;
}

bool
applySpanBatch(DurableServingState &state, std::string_view payload,
               RecoveryInfo *info)
{
    util::BinaryReader r(payload);
    const auto &interner = state.store.interner();
    while (r.ok() && r.remaining() > 0) {
        size_t id = r.u64();
        int64_t sloUs = r.i64();
        int flowIndex = static_cast<int>(r.i64());
        trace::ColumnarTrace cols;
        if (!cols.decode(r, interner))
            return fail(info, "corrupt span batch record");
        if (state.store.contains(id))
            return fail(info, "span batch restores a live id");
        state.store.restoreRecord(std::move(cols), sloUs, flowIndex,
                                  id);

        // Re-observe exactly as the live absorb did: every Observation
        // field is derivable from the restored record, so the detector
        // rings rebuild without logging a separate observation stream.
        const storage::Record &rec = state.store.at(id);
        int root = rec.columns.rootIndex();
        if (root < 0)
            return fail(info, "restored trace has no root span");
        auto ri = static_cast<size_t>(root);
        const trace::SpanColumns &c = rec.columns.columns();
        Observation obs;
        obs.endpoint = interner->name(c.serviceId(ri)) + "/" +
                       interner->name(c.nameId(ri));
        obs.startUs = c.startUs(ri);
        obs.durationUs = c.durationUs(ri);
        obs.error = c.hasError(ri);
        obs.anomalous = rec.anomalous();
        state.detector.observe(obs);
    }
    return true;
}

bool
applyEviction(DurableServingState &state, std::string_view payload,
              const RecoverOptions &opts, RecoveryInfo *info)
{
    util::BinaryReader r(payload);
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
        size_t id = r.u64();
        if (!r.ok())
            break;
        if (opts.skipEvictionReplay)
            continue;
        if (!state.store.contains(id))
            return fail(info, "eviction replay of an unknown id");
        state.store.evictById(id);
    }
    if (!r.ok() || r.remaining() != 0)
        return fail(info, "corrupt eviction record");
    return true;
}

bool
applyIncidentUpdate(DurableServingState &state,
                    std::string_view payload, RecoveryInfo *info)
{
    util::BinaryReader r(payload);
    size_t index = r.u64();
    Incident incident;
    if (!decodeIncident(r, &incident) || r.remaining() != 0)
        return fail(info, "corrupt incident update");
    if (index == state.incidents.size())
        state.incidents.push_back(std::move(incident));
    else if (index < state.incidents.size())
        state.incidents[index] = std::move(incident);
    else
        return fail(info, "incident update index gap");
    return true;
}

/** Apply one sealed commit group (the poll-atomic replay unit). */
bool
applyPoll(DurableServingState &state,
          const std::vector<const durable::WalFrame *> &frames,
          std::string_view markerPayload, const RecoverOptions &opts,
          RecoveryInfo *info)
{
    for (const durable::WalFrame *f : frames) {
        switch (f->kind) {
          case durable::RecordKind::InternerDelta:
            if (!applyInternerDelta(state, f->payload, info))
                return false;
            break;
          case durable::RecordKind::SpanBatch:
            if (!applySpanBatch(state, f->payload, info))
                return false;
            break;
          case durable::RecordKind::Eviction:
            if (!applyEviction(state, f->payload, opts, info))
                return false;
            break;
          case durable::RecordKind::IncidentUpdate:
            if (!applyIncidentUpdate(state, f->payload, info))
                return false;
            break;
          default:
            return fail(info, "unexpected record kind inside a poll");
        }
    }

    PollMarkerPayload m;
    if (!decodePollMarkerPayload(markerPayload, &m))
        return fail(info, "corrupt poll marker");
    state.watermarkUs = m.watermarkUs;
    state.lastRecordId = m.lastRecordId;
    state.tracesStored = m.tracesStored;
    // Storm flags depend on the whole advance history (hysteresis), so
    // each advance the live run performed in this group is re-run; the
    // transitions it reported are discarded — incident lifecycle
    // replays verbatim from IncidentUpdate records instead.
    for (int64_t wm : m.advanceWatermarks)
        (void)state.detector.advance(wm);

    // Cheap state-shape sanity: a replay that diverged from the live
    // run (e.g. retention applied differently) is caught at the first
    // sealed poll rather than at the final fingerprint comparison.
    if (state.store.size() != m.storeRecords ||
        state.store.totalSpans() != m.storeSpans ||
        state.store.interner()->size() != m.internerSize)
        return fail(info, "poll marker state-shape mismatch");
    return true;
}

} // namespace

std::string
encodeEpochPayload(const DetectorConfig &config)
{
    util::BinaryWriter w;
    w.u32(kStateFormatVersion);
    encodeDetectorConfig(w, config);
    return w.take();
}

bool
decodeEpochPayload(std::string_view payload, DetectorConfig *config)
{
    util::BinaryReader r(payload);
    if (r.u32() != kStateFormatVersion)
        return false;
    return decodeDetectorConfig(r, config) && r.remaining() == 0;
}

std::string
encodeInternerDeltaPayload(uint32_t firstId,
                           const std::vector<std::string> &names)
{
    util::BinaryWriter w;
    w.u32(firstId);
    w.u32(static_cast<uint32_t>(names.size()));
    for (const std::string &s : names)
        w.str(s);
    return w.take();
}

std::string
encodeEvictionPayload(const std::vector<size_t> &ids)
{
    util::BinaryWriter w;
    w.u32(static_cast<uint32_t>(ids.size()));
    for (size_t id : ids)
        w.u64(id);
    return w.take();
}

std::string
encodeIncidentUpdatePayload(size_t index, const Incident &incident)
{
    util::BinaryWriter w;
    w.u64(index);
    encodeIncident(w, incident);
    return w.take();
}

std::string
encodePollMarkerPayload(const PollMarkerPayload &marker)
{
    util::BinaryWriter w;
    w.i64(marker.watermarkUs);
    w.u64(marker.lastRecordId);
    w.u64(marker.tracesStored);
    w.u64(marker.storeRecords);
    w.u64(marker.storeSpans);
    w.u64(marker.internerSize);
    w.u32(static_cast<uint32_t>(marker.advanceWatermarks.size()));
    for (int64_t wm : marker.advanceWatermarks)
        w.i64(wm);
    return w.take();
}

void
appendSpanBatchRecord(util::BinaryWriter &w,
                      const storage::Record &record)
{
    w.u64(record.id);
    w.i64(record.sloUs);
    w.i64(record.flowIndex);
    record.columns.encode(w);
}

std::string
encodeSnapshotPayload(const DurableServingState &state)
{
    util::BinaryWriter w;
    w.u32(kStateFormatVersion);
    encodeDetectorConfig(w, state.detectorConfig);
    state.store.encodeState(w);
    state.detector.encodeState(w);
    w.u32(static_cast<uint32_t>(state.incidents.size()));
    for (const Incident &incident : state.incidents)
        encodeIncident(w, incident);
    w.i64(state.watermarkUs);
    w.u64(state.tracesStored);
    w.u64(state.lastRecordId);
    w.u64(state.store.contentFingerprint());
    return w.take();
}

uint64_t
servingStateFingerprint(const DurableServingState &state)
{
    util::BinaryWriter w;
    state.store.encodeState(w);
    state.detector.encodeState(w);
    w.u32(static_cast<uint32_t>(state.incidents.size()));
    for (const Incident &incident : state.incidents) {
        // rcaMillis is wall-clock (how long the RCA took in whichever
        // process ran it); every other incident field is event-time
        // deterministic. A recovered service carries the crashed
        // process's timing verbatim, so the equality fingerprint must
        // exclude it or no recovery could ever match its control run.
        Incident canonical = incident;
        canonical.rcaMillis = 0.0;
        encodeIncident(w, canonical);
    }
    w.i64(state.watermarkUs);
    w.u64(state.tracesStored);
    w.u64(state.lastRecordId);
    return util::fnv1a(w.buffer());
}

bool
decodeSnapshotPayload(std::string_view payload,
                      DurableServingState *state, std::string *err)
{
    util::BinaryReader r(payload);
    if (r.u32() != kStateFormatVersion) {
        *err = "unsupported snapshot format version";
        return false;
    }
    DurableServingState s;
    if (!decodeDetectorConfig(r, &s.detectorConfig)) {
        *err = "corrupt snapshot detector config";
        return false;
    }
    if (!s.store.decodeState(r)) {
        *err = "corrupt snapshot store section";
        return false;
    }
    s.detector = StormDetector(s.detectorConfig);
    if (!s.detector.decodeState(r)) {
        *err = "corrupt snapshot detector section";
        return false;
    }
    s.incidents.resize(r.count(kMinEncodedIncidentBytes));
    bool incidentsOk = r.ok();
    for (size_t i = 0; i < s.incidents.size() && incidentsOk; ++i)
        incidentsOk = decodeIncident(r, &s.incidents[i]);
    if (!incidentsOk) {
        *err = "corrupt snapshot incident section";
        return false;
    }
    s.watermarkUs = r.i64();
    s.tracesStored = r.u64();
    s.lastRecordId = r.u64();
    uint64_t fingerprint = r.u64();
    if (!r.ok() || r.remaining() != 0) {
        *err = "short or oversized snapshot payload";
        return false;
    }
    if (s.store.contentFingerprint() != fingerprint) {
        *err = "snapshot store fingerprint mismatch";
        return false;
    }
    *state = std::move(s);
    return true;
}

DurableServingState
replayRecoveredLog(const durable::RecoveredLog &log,
                   const std::optional<DetectorConfig> &detectorConfig,
                   const RecoverOptions &opts, RecoveryInfo *info)
{
    SLEUTH_ASSERT(info != nullptr, "replay needs a RecoveryInfo sink");
    *info = RecoveryInfo{};
    info->tornSegments = log.tornSegments;
    info->snapshotsSkipped = log.snapshotsSkipped;

    DurableServingState state;
    bool haveConfig = false;
    bool warnedConfig = false;
    if (log.hasSnapshot) {
        std::string err;
        if (!decodeSnapshotPayload(log.snapshotPayload, &state, &err)) {
            // The outer CRC already passed, so a semantic decode
            // failure means a version/logic mismatch, not disk rot.
            fail(info, "snapshot decode failed: " + err);
            return state;
        }
        info->usedSnapshot = true;
        info->snapshotIndex = log.snapshotIndex;
        info->haveData = true;
        haveConfig = true;
    } else if (detectorConfig) {
        state.detectorConfig = *detectorConfig;
        state.detector = StormDetector(state.detectorConfig);
        haveConfig = true;
    }

    std::vector<const durable::WalFrame *> pending;
    for (const durable::WalFrame &f : log.frames) {
        info->haveData = true;
        switch (f.kind) {
          case durable::RecordKind::Epoch: {
            DetectorConfig logged;
            if (!decodeEpochPayload(f.payload, &logged)) {
                fail(info, "corrupt epoch record");
                return state;
            }
            if (!haveConfig) {
                state.detectorConfig = logged;
                state.detector = StormDetector(logged);
                haveConfig = true;
            } else if (!warnedConfig &&
                       !sameDetectorConfig(logged,
                                           state.detectorConfig)) {
                // Replay keeps the config it started with; changing
                // detection knobs requires a fresh data directory (or
                // a compact, which re-stamps the epoch).
                util::warn("durable recovery: logged detector config "
                           "differs from the replay config; replaying "
                           "with the latter");
                warnedConfig = true;
            }
            ++info->framesReplayed;
            break;
          }
          case durable::RecordKind::PollMarker: {
            if (!haveConfig) {
                fail(info, "poll marker before any epoch record");
                return state;
            }
            if (!applyPoll(state, pending, f.payload, opts, info))
                return state;
            info->framesReplayed += pending.size() + 1;
            ++info->pollsReplayed;
            pending.clear();
            break;
          }
          default:
            pending.push_back(&f);
        }
    }

    info->discardedTailFrames = pending.size();
    if (!pending.empty()) {
        static obs::Counter &discarded = obs::counter(
            "sleuth_recovery_discarded_frames_total",
            "WAL tail frames discarded for lack of a sealing "
            "poll marker");
        discarded.add(pending.size());
        util::inform("durable recovery: discarded ", pending.size(),
                     " unsealed tail frame(s)");
    }
    static obs::Counter &polls = obs::counter(
        "sleuth_recovery_polls_replayed_total",
        "Committed polls applied during durable recovery");
    polls.add(info->pollsReplayed);
    return state;
}

DurableServingState
recoverState(const durable::DurableConfig &cfg,
             const RecoverOptions &opts, RecoveryInfo *info)
{
    durable::DurableLog log(cfg);
    durable::RecoveredLog recovered = log.recover();
    return replayRecoveredLog(recovered, std::nullopt, opts, info);
}

} // namespace sleuth::online

// Durable replay engine (DESIGN.md §3.15): snapshot payload round
// trips, poll-atomic tail discard, config-free epoch replay, and the
// regression pinning replayed evictions bitwise to live evictions
// while the vocabulary interner keeps growing past evicted records,
// and the rejection of counts too large for the payload that holds
// them.

#include "online/durable_state.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "durable/durable_log.h"
#include "storage/trace_store.h"
#include "trace/trace.h"
#include "util/binary.h"

using namespace sleuth;

namespace {

/** A tiny two-span trace with a per-index vocabulary, so every insert
    grows the interner even after older records are evicted. */
trace::Trace
makeTrace(int i)
{
    std::string tag = std::to_string(i);
    trace::Trace t;
    t.traceId = "trace-" + tag;
    trace::Span root;
    root.spanId = "s" + tag + "-root";
    root.service = "svc-" + tag;
    root.name = "op-" + tag;
    root.startUs = 1'000 * i;
    root.endUs = root.startUs + 900;
    t.spans.push_back(root);
    trace::Span child;
    child.spanId = "s" + tag + "-child";
    child.parentSpanId = root.spanId;
    child.service = "dep-" + tag;
    child.name = "call-" + tag;
    child.startUs = root.startUs + 10;
    child.endUs = root.startUs + 500;
    t.spans.push_back(child);
    return t;
}

/** A live retention-bounded run and the WAL frame stream a durable
    service would have committed for it, one poll per insert. */
struct LiveRun
{
    storage::TraceStore store{storage::RetentionConfig{0, 2}};
    std::vector<durable::WalFrame> frames;
    size_t lastRecordId = 0;
    size_t tracesStored = 0;
    size_t evictionPolls = 0;
};

LiveRun
buildLiveRun(int polls)
{
    LiveRun run;
    run.store.trackEvictions(true);
    size_t interner_logged = run.store.interner()->size();
    for (int i = 0; i < polls; ++i) {
        size_t id = run.store.insert(makeTrace(i), 2'000, i);
        run.lastRecordId = id;
        ++run.tracesStored;
        util::BinaryWriter batch;
        online::appendSpanBatchRecord(batch, run.store.at(id));

        // Commit order mirrors the live service: vocabulary first (the
        // batch's raw u32 ids reference it), then the batch, the
        // eviction summary, and the sealing marker.
        size_t interned = run.store.interner()->size();
        if (interned > interner_logged) {
            run.frames.push_back(
                {durable::RecordKind::InternerDelta,
                 online::encodeInternerDeltaPayload(
                     static_cast<uint32_t>(interner_logged),
                     run.store.interner()->namesFrom(interner_logged)),
                 0});
            interner_logged = interned;
        }
        run.frames.push_back(
            {durable::RecordKind::SpanBatch, batch.take(), 0});
        std::vector<size_t> evicted =
            run.store.takeRecentEvictions();
        if (!evicted.empty()) {
            ++run.evictionPolls;
            run.frames.push_back(
                {durable::RecordKind::Eviction,
                 online::encodeEvictionPayload(evicted), 0});
        }
        online::PollMarkerPayload m;
        m.watermarkUs = 1'000 * (i + 1);
        m.lastRecordId = run.lastRecordId;
        m.tracesStored = run.tracesStored;
        m.storeRecords = run.store.size();
        m.storeSpans = run.store.totalSpans();
        m.internerSize = run.store.interner()->size();
        run.frames.push_back(
            {durable::RecordKind::PollMarker,
             online::encodePollMarkerPayload(m), 0});
    }
    return run;
}

durable::RecoveredLog
asLog(std::vector<durable::WalFrame> frames)
{
    durable::RecoveredLog log;
    log.haveSegments = true;
    log.frames = std::move(frames);
    return log;
}

} // namespace

TEST(DurableReplay, EvictionReplayMatchesLiveUnderInternerGrowth)
{
    // Retention maxRecords=2 over 6 single-trace polls: inserts 2..5
    // each evict the then-oldest record, while every insert interns a
    // fresh vocabulary. Replay applies the logged decisions — not the
    // policy — and must land on the live store's exact content,
    // including the interner entries only evicted records used.
    LiveRun live = buildLiveRun(6);
    ASSERT_GE(live.evictionPolls, 4u);
    ASSERT_EQ(live.store.size(), 2u);

    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.pollsReplayed, 6u);
    EXPECT_EQ(info.discardedTailFrames, 0u);
    EXPECT_EQ(state.store.contentFingerprint(),
              live.store.contentFingerprint());
    EXPECT_EQ(state.store.interner()->size(),
              live.store.interner()->size());
    EXPECT_EQ(state.lastRecordId, live.lastRecordId);
    EXPECT_EQ(state.tracesStored, live.tracesStored);

    // The cumulative eviction counters replay too.
    EXPECT_EQ(state.store.evictions().records,
              live.store.evictions().records);
}

TEST(DurableReplay, SkippingEvictionReplayIsRejected)
{
    // The skip-eviction-replay mutation ignores logged Eviction
    // records; the first sealed poll whose marker counters disagree
    // must stop the replay with a state-shape error instead of
    // returning silently divergent state.
    LiveRun live = buildLiveRun(6);
    online::RecoverOptions opts;
    opts.skipEvictionReplay = true;
    online::RecoveryInfo info;
    online::replayRecoveredLog(asLog(live.frames),
                               online::DetectorConfig{}, opts, &info);
    EXPECT_FALSE(info.ok);
    EXPECT_NE(info.error.find("state-shape"), std::string::npos)
        << info.error;
}

TEST(DurableReplay, UnsealedTailIsDiscarded)
{
    // Frames after the last PollMarker never reach the state — the
    // poll is the atomic unit, and a torn mid-poll tail (even one
    // full of garbage bytes) costs exactly that uncommitted poll.
    LiveRun live = buildLiveRun(4);
    online::RecoveryInfo clean_info;
    online::DurableServingState clean = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &clean_info);
    ASSERT_TRUE(clean_info.ok) << clean_info.error;

    std::vector<durable::WalFrame> torn = live.frames;
    torn.push_back({durable::RecordKind::SpanBatch,
                    "garbage never decoded", 0});
    torn.push_back({durable::RecordKind::Eviction, "\x01", 0});
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(torn), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(info.discardedTailFrames, 2u);
    EXPECT_EQ(info.pollsReplayed, 4u);
    EXPECT_EQ(online::servingStateFingerprint(state),
              online::servingStateFingerprint(clean));
}

TEST(DurableReplay, EpochRecordDrivesConfigFreeReplay)
{
    // The CLI replays logs with no config of its own: the segment's
    // Epoch record supplies it. A marker arriving before any epoch
    // (and no caller config) is a hard error, not a guess.
    LiveRun live = buildLiveRun(3);

    std::vector<durable::WalFrame> with_epoch = live.frames;
    with_epoch.insert(
        with_epoch.begin(),
        {durable::RecordKind::Epoch,
         online::encodeEpochPayload(online::DetectorConfig{}), 0});
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(with_epoch), std::nullopt, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;
    EXPECT_EQ(state.store.contentFingerprint(),
              live.store.contentFingerprint());

    online::RecoveryInfo bare;
    online::replayRecoveredLog(asLog(live.frames), std::nullopt, {},
                               &bare);
    EXPECT_FALSE(bare.ok);
    EXPECT_NE(bare.error.find("epoch"), std::string::npos)
        << bare.error;
}

TEST(DurableReplay, SnapshotPayloadRoundTripExact)
{
    LiveRun live = buildLiveRun(5);
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;

    std::string payload = online::encodeSnapshotPayload(state);
    online::DurableServingState back;
    std::string err;
    ASSERT_TRUE(online::decodeSnapshotPayload(payload, &back, &err))
        << err;
    EXPECT_EQ(online::servingStateFingerprint(back),
              online::servingStateFingerprint(state));

    // The payload's own guarantees (the file-level CRC in snapshot.cc
    // guards raw rot): a length mismatch fails structurally, and a
    // corrupted store section trips the embedded content fingerprint.
    online::DurableServingState out;
    err.clear();
    EXPECT_FALSE(online::decodeSnapshotPayload(
        std::string_view(payload).substr(0, payload.size() - 1), &out,
        &err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(
        online::decodeSnapshotPayload(payload + "x", &out, &err));
    EXPECT_FALSE(err.empty());

    size_t at = payload.find("svc-3"); // an interned store string
    ASSERT_NE(at, std::string::npos);
    std::string mutated = payload;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x10);
    err.clear();
    EXPECT_FALSE(online::decodeSnapshotPayload(mutated, &out, &err));
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

TEST(DurableReplay, OversizedCountsFailBeforeAllocating)
{
    // A snapshot whose CRC matches can still carry any count. Every
    // count that sizes a container is checked against the unread bytes
    // before the container grows, so a count of 0xFFFFFFFF is a
    // section error instead of a multi-gigabyte allocation.
    LiveRun live = buildLiveRun(3);
    online::RecoveryInfo info;
    online::DurableServingState state = online::replayRecoveredLog(
        asLog(live.frames), online::DetectorConfig{}, {}, &info);
    ASSERT_TRUE(info.ok) << info.error;

    // The incident-count bound is the smallest encoded incident.
    util::BinaryWriter empty;
    online::encodeIncident(empty, online::Incident{});
    EXPECT_EQ(empty.size(), online::kMinEncodedIncidentBytes);

    // Marker values locate the two counts in the byte image: the
    // incident count directly precedes the first incident's id, and
    // the perTrace count directly follows normalsConsidered.
    constexpr uint64_t kIdMarker = 0x1d1d1d1d1d1d1d1dULL;
    constexpr uint64_t kNormalsMarker = 0x5eed5eed5eed5eedULL;
    online::Incident incident;
    incident.id = kIdMarker;
    incident.state = online::Incident::State::Analyzed;
    incident.endpoints = {"svc-2/op-2"};
    incident.anomalousTraces = {makeTrace(2)};
    incident.slos = {2'000};
    incident.normalsConsidered = kNormalsMarker;
    incident.rca.perTrace.resize(1);
    incident.rca.perTrace[0].services = {"svc-2"};
    incident.rca.perTrace[0].resolved = true;
    incident.rankedRootCauses = {{"svc-2", 1}};
    state.incidents.push_back(incident);
    std::string payload = online::encodeSnapshotPayload(state);

    online::DurableServingState out;
    std::string err;
    ASSERT_TRUE(online::decodeSnapshotPayload(payload, &out, &err))
        << err;

    auto offsetOf = [&](uint64_t marker) {
        std::string bytes(sizeof marker, '\0');
        std::memcpy(bytes.data(), &marker, sizeof marker);
        return payload.find(bytes);
    };
    size_t idAt = offsetOf(kIdMarker);
    size_t normalsAt = offsetOf(kNormalsMarker);
    ASSERT_NE(idAt, std::string::npos);
    ASSERT_NE(normalsAt, std::string::npos);
    struct Count
    {
        const char *name;
        size_t offset;
        uint32_t value;
    };
    for (const Count &c : {Count{"incidents", idAt - 4, 1},
                           Count{"perTrace", normalsAt + 8, 1}}) {
        uint32_t stored = 0;
        std::memcpy(&stored, payload.data() + c.offset, 4);
        ASSERT_EQ(stored, c.value) << c.name;

        std::string patched = payload;
        uint32_t huge = 0xFFFFFFFFu;
        std::memcpy(patched.data() + c.offset, &huge, 4);
        err.clear();
        EXPECT_FALSE(online::decodeSnapshotPayload(patched, &out, &err))
            << c.name;
        EXPECT_EQ(err, "corrupt snapshot incident section") << c.name;
    }
}

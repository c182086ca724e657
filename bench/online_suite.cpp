// Serving benchmark for the online layer: streaming span ingestion
// throughput, storm-detection latency, and incident-scoped RCA latency.
//
// The suite trains the model on a healthy warmup corpus, then replays
// a Poisson span stream (out-of-order, jittered, duplicated deliveries)
// through the OnlineService under a chaos schedule that phases faults
// in and out twice, producing two full incident lifecycles. Reported
// rows ({metric, value, unit[, note]}, written to BENCH_online.json or
// the first non-flag argument):
//
//   ingest_spans_per_sec   headline delivery throughput — best of five
//                          metrics-on reruns, the same measurement the
//                          metrics on/off pair below reports
//   ingest_cold_spans_per_sec
//                          the first, cache-cold pass (always slower
//                          than the headline; kept for honesty)
//   detection_latency_p50/p99_ms
//                          detecting poll's watermark minus the
//                          event-time storm onset, across incidents
//   incident_rca_ms        mean wall time of incident-scoped pipeline
//                          runs
//   assembly_drop_fraction spans dropped / spans delivered
//   incremental_repoll_speedup
//                          wall-time ratio of re-analyzing a persisting
//                          incident snapshot (unchanged on most polls,
//                          growing on every third) without vs with the
//                          cross-poll PipelineCache (verdicts asserted
//                          bitwise identical poll-for-poll)
//   ingest_metrics_on_spans_per_sec / ingest_metrics_off_spans_per_sec
//                          best-of-5 interleaved reruns of the stream
//                          with the obs metrics layer on vs disabled
//   ingest_metrics_overhead_pct
//                          throughput cost of leaving metrics on
//                          (acceptance bar: < 2%)
//   ingest_scaling_*       producer-thread x shard-count sweep (only
//                          meaningful on multicore hosts; on a single
//                          core the row is emitted with note
//                          "skipped_single_core" instead of fake
//                          parallel numbers)
//
// With --soak the suite additionally replays hours of simulated time
// at a low arrival rate against a bounded retention budget, sampling
// RSS from /proc/self/status at poll boundaries:
//
//   soak_simulated_hours / soak_spans_delivered
//   soak_rss_peak_mb / soak_rss_growth_mb   bounded-memory evidence
//   soak_watermark_ok                        1 = advanced every poll
//   soak_store_spans / soak_backlog_final_spans
//
// The chaos phase starts are deliberately NOT multiples of the 250 ms
// poll interval. The old schedule (2.0 s / 7.0 s) hid a measurement
// bug: latency was taken from the configured phase start, so every
// sample collapsed onto the poll grid and p50 == p99 == 400 ms
// exactly. The suite now fails (exit 1) if the distribution is
// poll-grid quantized again.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault.h"
#include "core/pipeline.h"
#include "core/pipeline_cache.h"
#include "durable/durable_log.h"
#include "durable/wal.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "online/durable_state.h"
#include "online/live_source.h"
#include "online/service.h"
#include "sim/cluster_model.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "synth/generator.h"
#include "trace/columnar.h"
#include "util/json.h"
#include "util/rng.h"

using namespace sleuth;

namespace {

struct Row
{
    std::string metric;
    double value = 0.0;
    std::string unit;
    /** Optional annotation (e.g. "skipped_single_core"). */
    std::string note;
};

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double rank = p * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/** Self-cleaning scratch directory for WAL/snapshot measurements. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        const char *base = std::getenv("TMPDIR");
        std::string tmpl = std::string(base != nullptr ? base : "/tmp") +
                           "/sleuth-bench-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (mkdtemp(buf.data()) != nullptr)
            path = buf.data();
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;
};

/** Resident set size from /proc/self/status, in MiB (0 if absent). */
double
residentMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = "BENCH_online.json";
    bool soak = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--soak")
            soak = true;
        else
            out_path = argv[i];
    }
    std::vector<Row> rows;

    // --- Fixture: application, deployment, SLOs, trained model. ---
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(24, 7));
    sim::ClusterModel cluster(app, 10, 7);
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, 7);
    sim::Simulator warmup(app, cluster, {.seed = 0x9a17});
    std::vector<trace::Trace> corpus;
    for (int i = 0; i < 400; ++i)
        corpus.push_back(warmup.simulateOne().trace);
    eval::SleuthAdapter adapter;
    adapter.fit(corpus);

    // --- Chaos schedule: two separated fault phases -> two incident
    // lifecycles within one 12-second stream. Phase starts are
    // deliberately off the 250 ms poll grid (see the header comment).
    util::Rng chaos_rng(0xc4a05);
    chaos::FaultPlan plan = chaos::planFixedFaults(
        cluster.allInstances(), 2, chaos::FaultScope::Container, {},
        chaos_rng);
    chaos::FaultSchedule schedule;
    schedule.phases.push_back({0, {}});
    schedule.phases.push_back({2'137'000, plan});
    schedule.phases.push_back({3'641'000, {}});
    schedule.phases.push_back({7'411'000, plan});
    schedule.phases.push_back({8'923'000, {}});

    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(app);
    cfg.retention.maxSpans = 500'000;
    cfg.detector.bucketUs = 250'000;
    cfg.detector.windowBuckets = 8;

    online::OnlineService service(adapter.model(), adapter.encoder(),
                                  adapter.profile(), cfg);
    online::LiveSourceConfig live;
    live.seed = 7;
    live.requests = 4800;
    live.arrivalRatePerSec = 400.0;
    live.ingestThreads = 2;
    live.pollIntervalUs = 250'000;
    live.duplicateProb = 0.02;
    live.schedule = schedule;

    online::LiveRunResult run = online::runLiveLoad(
        app, cluster, {.seed = 0x515}, live, &service);

    rows.push_back({"ingest_cold_spans_per_sec", run.spansPerSec,
                    "spans/s", "first pass, caches cold"});
    std::printf("ingest (cold): %zu spans in %.1f ms (%.0f spans/s)\n",
                run.spansDelivered, run.ingestWallMillis,
                run.spansPerSec);

    // --- Detection latency, with the quantization regression gate. ---
    std::vector<double> detect_ms;
    bool off_grid = false;
    for (int64_t us : run.detectionLatenciesUs) {
        detect_ms.push_back(static_cast<double>(us) / 1000.0);
        if (us % live.pollIntervalUs != 0)
            off_grid = true;
    }
    if (detect_ms.empty()) {
        std::fprintf(stderr, "FATAL: chaos stream produced no "
                             "detection latencies\n");
        return 1;
    }
    double p50 = percentile(detect_ms, 0.50);
    double p99 = percentile(detect_ms, 0.99);
    double poll_ms =
        static_cast<double>(live.pollIntervalUs) / 1000.0;
    if (!off_grid) {
        std::fprintf(stderr,
                     "FATAL: every detection latency is a multiple of "
                     "the %.0f ms poll interval — the latency is being "
                     "measured from the phase boundary, not the "
                     "event-time storm onset\n",
                     poll_ms);
        return 1;
    }
    if (std::fabs(p50 - poll_ms) < 1e-6 ||
        (detect_ms.size() >= 2 && p50 == p99)) {
        std::fprintf(stderr,
                     "FATAL: detection latency distribution is "
                     "poll-grid quantized (p50 %.3f ms, p99 %.3f ms, "
                     "poll %.0f ms)\n",
                     p50, p99, poll_ms);
        return 1;
    }
    rows.push_back({"detection_latency_p50_ms", p50, "ms"});
    rows.push_back({"detection_latency_p99_ms", p99, "ms"});

    double rca_ms = 0.0;
    size_t analyzed = 0;
    for (const online::Incident &incident : service.incidents()) {
        if (incident.state == online::Incident::State::Open)
            continue;
        rca_ms += incident.rcaMillis;
        ++analyzed;
    }
    rows.push_back({"incident_rca_ms",
                    analyzed > 0 ? rca_ms / static_cast<double>(analyzed)
                                 : 0.0,
                    "ms"});

    online::OnlineStats stats = service.stats();
    double drop_fraction =
        run.spansDelivered > 0
            ? static_cast<double>(stats.assembly.spansRejected) /
                  static_cast<double>(run.spansDelivered)
            : 0.0;
    rows.push_back(
        {"assembly_drop_fraction", drop_fraction, "fraction"});

    // --- Resident bytes per span in the live trace store, columnar
    // accounting vs the row-oriented AoS estimate of the same traces
    // (the before/after of the columnar refactor, online path). ---
    {
        const storage::TraceStore &store = service.store();
        size_t legacy_bytes = 0;
        storage::Query all;
        for (const storage::Record *r : store.query(all))
            legacy_bytes += trace::approxTraceMemoryBytes(r->trace());
        double spans = static_cast<double>(store.totalSpans());
        if (spans > 0.0) {
            double per_span_columnar =
                static_cast<double>(store.memoryBytes()) / spans;
            double per_span_legacy =
                static_cast<double>(legacy_bytes) / spans;
            rows.push_back({"memory_bytes_per_span", per_span_columnar,
                            "bytes"});
            rows.push_back({"memory_bytes_per_span_legacy",
                            per_span_legacy, "bytes"});
            rows.push_back({"memory_bytes_per_span_reduction",
                            per_span_legacy / per_span_columnar, "x"});
            std::printf("store memory: %.1f bytes/span columnar vs "
                        "%.1f legacy (%.2fx smaller)\n",
                        per_span_columnar, per_span_legacy,
                        per_span_legacy / per_span_columnar);
        }
    }

    // --- Incremental re-poll speedup: the reanalyzeOpenIncidents path
    // re-runs the pipeline over an incident snapshot that grows by a
    // handful of late traces per poll. Time that poll sequence without
    // and with the cross-poll PipelineCache (fresh cache per rep — the
    // cold first poll is part of the cached cost), asserting the
    // verdicts are bitwise identical poll-for-poll (the
    // incremental-repoll campaign invariant, measured). ---
    {
        sim::Simulator storm_sim(app, cluster, {.seed = 0x7a11});
        int num_flows =
            std::min<int>(4, static_cast<int>(app.flows.size()));
        std::vector<trace::Trace> storm;
        for (int i = 0; i < 160; ++i)
            storm.push_back(
                storm_sim.simulateFlow(i % num_flows).trace);
        std::vector<int64_t> durs;
        durs.reserve(storm.size());
        for (const trace::Trace &t : storm)
            durs.push_back(t.rootDurationUs());
        std::nth_element(durs.begin(), durs.begin() + durs.size() / 2,
                         durs.end());
        int64_t slo = std::max<int64_t>(1, durs[durs.size() / 2] / 2);

        core::PipelineConfig pcfg;
        core::SleuthPipeline pipeline(adapter.model(),
                                      adapter.encoder(),
                                      adapter.profile(), pcfg);
        // Snapshots prebuilt outside the timed region: the metric is
        // re-analysis cost, not the (identical either way) cost of
        // copying the snapshot out of the store. The poll sequence
        // models an open incident under reanalyzeOpenIncidents: the
        // service re-analyzes on every poll, but late traces only
        // arrive on some of them, so each window is polled three times
        // (one growth poll, two with the snapshot persisting
        // unchanged — the batch fast path).
        const std::vector<size_t> windows = {80, 96, 112, 128, 144,
                                             160};
        std::vector<std::vector<trace::Trace>> snaps;
        snaps.reserve(windows.size());
        for (size_t n : windows)
            snaps.emplace_back(storm.begin(),
                               storm.begin() + static_cast<long>(n));
        std::vector<size_t> polls;
        for (size_t w = 0; w < snaps.size(); ++w)
            for (int rep = 0; rep < 3; ++rep)
                polls.push_back(w);

        auto fingerprint = [](const core::PipelineResult &r) {
            std::string out = std::to_string(r.numClusters) + "/" +
                              std::to_string(r.rcaInvocations);
            for (size_t i = 0; i < r.perTrace.size(); ++i) {
                out += "|" + std::to_string(r.clusterLabels[i]) + ":";
                for (const std::string &svc : r.perTrace[i].services)
                    out += svc + ",";
            }
            return out;
        };
        auto runPolls = [&](core::PipelineCache *cache,
                            std::vector<std::string> *prints) {
            std::vector<core::PipelineResult> results;
            results.reserve(polls.size());
            auto t0 = std::chrono::steady_clock::now();
            for (size_t w : polls) {
                const std::vector<trace::Trace> &snap = snaps[w];
                std::vector<int64_t> slos(snap.size(), slo);
                results.push_back(
                    pipeline.analyze(snap, slos, {.cache = cache}));
            }
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            if (prints != nullptr)
                for (const core::PipelineResult &res : results)
                    prints->push_back(fingerprint(res));
            return ms;
        };

        std::vector<std::string> cold_prints;
        std::vector<std::string> warm_prints;
        double cold_ms = std::numeric_limits<double>::infinity();
        double warm_ms = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
            cold_prints.clear();
            cold_ms = std::min(cold_ms,
                               runPolls(nullptr, &cold_prints));
            core::PipelineCache cache;
            warm_prints.clear();
            warm_ms = std::min(warm_ms,
                               runPolls(&cache, &warm_prints));
        }
        if (cold_prints != warm_prints) {
            std::fprintf(stderr, "FATAL: cached incident re-poll "
                                 "diverged from the full recompute\n");
            return 1;
        }
        double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
        rows.push_back({"incremental_repoll_uncached_ms", cold_ms,
                        "ms"});
        rows.push_back({"incremental_repoll_cached_ms", warm_ms,
                        "ms"});
        rows.push_back({"incremental_repoll_speedup", speedup, "x",
                        "18 polls, 80->160 traces, growth every 3rd"});
        std::printf("incremental re-poll: %.1f ms uncached vs %.1f ms"
                    " cached (%.2fx)\n",
                    cold_ms, warm_ms, speedup);
    }

    double headline = 0.0; // ingest_spans_per_sec, set below

    // --- The same stream with the metrics layer on vs off: identical
    // incidents (write-only side channel), throughput delta is the
    // instrumentation overhead. A single ~100ms ingest loop is too
    // noisy to resolve a sub-2% delta, so take the best of five
    // interleaved on/off pairs: interleaving cancels slow frequency
    // and cache drift that back-to-back blocks would attribute to one
    // mode. The metrics-on best is also the headline
    // ingest_spans_per_sec — one methodology, one number, instead of
    // a cold single pass contradicting the warmed best-of-5 pair. ---
    {
        auto oneRun = [&](bool metrics, online::Incident *first) {
            obs::setEnabled(metrics);
            online::OnlineService svc(adapter.model(),
                                      adapter.encoder(),
                                      adapter.profile(), cfg);
            online::LiveRunResult r = online::runLiveLoad(
                app, cluster, {.seed = 0x515}, live, &svc);
            obs::setEnabled(true);
            if (first != nullptr && !svc.incidents().empty())
                *first = svc.incidents()[0];
            return r.spansPerSec;
        };
        online::Incident off_incident;
        double &on_best = headline;
        double off_best = 0.0;
        for (int rep = 0; rep < 5; ++rep) {
            on_best = std::max(on_best, oneRun(true, nullptr));
            off_best = std::max(
                off_best,
                oneRun(false, rep == 0 ? &off_incident : nullptr));
        }
        if (service.incidents().empty() ||
            service.incidents()[0].openedAtUs !=
                off_incident.openedAtUs ||
            service.incidents()[0].rankedRootCauses !=
                off_incident.rankedRootCauses) {
            std::fprintf(stderr,
                         "FATAL: metrics on/off incident divergence\n");
            return 1;
        }
        double overhead_pct =
            off_best > 0.0 ? (1.0 - on_best / off_best) * 100.0 : 0.0;
        rows.push_back({"ingest_spans_per_sec", on_best, "spans/s",
                        "best-of-5, metrics on"});
        rows.push_back({"ingest_metrics_on_spans_per_sec", on_best,
                        "spans/s"});
        rows.push_back({"ingest_metrics_off_spans_per_sec", off_best,
                        "spans/s"});
        rows.push_back(
            {"ingest_metrics_overhead_pct", overhead_pct, "%"});
        std::printf("ingest metrics on/off best-of-5: %.0f / %.0f"
                    " spans/s (%.2f%% overhead)\n",
                    on_best, off_best, overhead_pct);
    }

    // --- Durable serving (DESIGN.md §3.15): the same stream with a
    // write-ahead log attached under each fsync policy, raw WAL append
    // throughput, snapshot write cost, and recovery replay speed. The
    // fsync=group ratio is the acceptance bar: durable ingest must
    // sustain at least half the non-durable headline. ---
    {
        // Raw WAL append throughput: batch the live store's records
        // into span-batch frames (64 records each, the encoding the
        // service commits) and append them repeatedly, fsync off.
        {
            const storage::TraceStore &store = service.store();
            std::vector<std::string> batches;
            size_t batch_spans = 0;
            util::BinaryWriter w;
            size_t in_batch = 0;
            for (const storage::Record *r : store.query({})) {
                online::appendSpanBatchRecord(w, *r);
                batch_spans += r->spanCount();
                if (++in_batch == 64) {
                    batches.push_back(w.take());
                    in_batch = 0;
                }
            }
            if (in_batch > 0)
                batches.push_back(w.take());
            TempDir wal_dir;
            durable::WalWriter writer(wal_dir.path,
                                      durable::FsyncPolicy::Off);
            std::string err;
            if (!wal_dir.path.empty() &&
                writer.openSegment(0, 0, &err) && batch_spans > 0) {
                const int reps = 20;
                auto t0 = std::chrono::steady_clock::now();
                for (int rep = 0; rep < reps; ++rep) {
                    for (const std::string &b : batches)
                        writer.append(durable::RecordKind::SpanBatch,
                                      b);
                    writer.sync();
                }
                double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
                double spans =
                    static_cast<double>(batch_spans) * reps;
                rows.push_back({"wal_append_spans_per_sec",
                                secs > 0.0 ? spans / secs : 0.0,
                                "spans/s", "64-record batches, fsync "
                                           "off"});
                std::printf("wal append: %.0f spans/s (%.1f MB "
                            "written)\n",
                            secs > 0.0 ? spans / secs : 0.0,
                            static_cast<double>(writer.segmentBytes()) /
                                1e6);
            }
        }

        // Durable ingest under each fsync policy (best of 3, fresh
        // data directory per rep), plus snapshot and recovery timings
        // measured on the group-policy log.
        auto policyName = [](durable::FsyncPolicy p) {
            return std::string(durable::toString(p));
        };
        for (durable::FsyncPolicy policy :
             {durable::FsyncPolicy::Always, durable::FsyncPolicy::Group,
              durable::FsyncPolicy::Off}) {
            double best = 0.0;
            size_t spans_accepted = 0;
            double snapshot_ms = 0.0;
            double recovery_ms = 0.0;
            for (int rep = 0; rep < 3; ++rep) {
                TempDir dir;
                if (dir.path.empty())
                    continue;
                durable::DurableConfig dcfg;
                dcfg.dir = dir.path;
                dcfg.fsyncPolicy = policy;
                online::OnlineService svc(adapter.model(),
                                          adapter.encoder(),
                                          adapter.profile(), cfg);
                online::RecoveryInfo boot = svc.enableDurability(dcfg);
                if (!boot.ok) {
                    std::fprintf(stderr, "FATAL: durable open failed: "
                                         "%s\n",
                                 boot.error.c_str());
                    return 1;
                }
                online::LiveRunResult r = online::runLiveLoad(
                    app, cluster, {.seed = 0x515}, live, &svc);
                best = std::max(best, r.spansPerSec);
                if (policy == durable::FsyncPolicy::Group &&
                    rep == 0) {
                    spans_accepted = svc.stats().assembly.spansAccepted;
                    std::string serr;
                    auto s0 = std::chrono::steady_clock::now();
                    if (!svc.snapshotNow(&serr)) {
                        std::fprintf(stderr,
                                     "FATAL: snapshot failed: %s\n",
                                     serr.c_str());
                        return 1;
                    }
                    snapshot_ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - s0)
                            .count();
                    // Recover the crashed-process view from disk: the
                    // snapshot seeds, the WAL tail replays.
                    online::RecoveryInfo info;
                    auto r0 = std::chrono::steady_clock::now();
                    online::DurableServingState state =
                        online::recoverState(dcfg, {}, &info);
                    recovery_ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - r0)
                            .count();
                    if (!info.ok) {
                        std::fprintf(stderr,
                                     "FATAL: bench recovery failed: "
                                     "%s\n",
                                     info.error.c_str());
                        return 1;
                    }
                    uint64_t live_fp = svc.servingFingerprint();
                    uint64_t rec_fp = online::servingStateFingerprint(
                        state.store, state.detector, state.incidents,
                        state.watermarkUs, state.tracesStored,
                        state.lastRecordId);
                    if (rec_fp != live_fp) {
                        std::fprintf(stderr,
                                     "FATAL: bench recovery diverged "
                                     "from the live service\n");
                        return 1;
                    }
                }
            }
            rows.push_back({"wal_fsync_" + policyName(policy) +
                                "_spans_per_sec",
                            best, "spans/s", "best-of-3, durable"});
            std::printf("durable ingest (fsync=%s): %.0f spans/s\n",
                        policyName(policy).c_str(), best);
            if (policy == durable::FsyncPolicy::Group) {
                rows.push_back(
                    {"snapshot_write_ms", snapshot_ms, "ms"});
                rows.push_back({"recovery_ms", recovery_ms, "ms",
                                "snapshot + WAL tail replay"});
                if (spans_accepted > 0)
                    rows.push_back(
                        {"recovery_ms_per_million_spans",
                         recovery_ms * 1e6 /
                             static_cast<double>(spans_accepted),
                         "ms/Mspan"});
                double ratio =
                    headline > 0.0 ? best / headline : 0.0;
                rows.push_back({"wal_fsync_group_vs_headline", ratio,
                                "fraction",
                                "acceptance bar: >= 0.5"});
                std::printf("durable/headline ratio: %.2f (snapshot "
                            "%.1f ms, recovery %.1f ms)\n",
                            ratio, snapshot_ms, recovery_ms);
                if (ratio < 0.5) {
                    std::fprintf(stderr,
                                 "FATAL: fsync=group ingest fell "
                                 "below half the non-durable "
                                 "headline (%.2f)\n",
                                 ratio);
                    return 1;
                }
            }
        }
    }

    // --- Producer-thread x shard-count scaling. Parallel speedups
    // measured on a single core are fiction (threads time-slice), so
    // the sweep only runs when the host has cores to scale onto;
    // otherwise one honest skipped row is emitted. ---
    {
        const size_t cores = std::thread::hardware_concurrency();
        rows.push_back({"hardware_concurrency",
                        static_cast<double>(cores), "cores"});
        if (cores < 2) {
            rows.push_back({"ingest_scaling_spans_per_sec", 0.0,
                            "spans/s", "skipped_single_core"});
            std::printf("ingest scaling: skipped (1 core)\n");
        } else {
            auto scalingRun = [&](size_t threads, size_t shards) {
                online::OnlineConfig scfg = cfg;
                scfg.ingestShards = shards;
                // Short-lived services; ring sized for the stream's
                // densest poll batch, not a million-span/s interval.
                scfg.ringCapacitySpans = 1 << 14;
                online::LiveSourceConfig slive = live;
                slive.ingestThreads = threads;
                double best = 0.0;
                for (int rep = 0; rep < 3; ++rep) {
                    online::OnlineService svc(adapter.model(),
                                              adapter.encoder(),
                                              adapter.profile(), scfg);
                    best = std::max(
                        best, online::runLiveLoad(app, cluster,
                                                  {.seed = 0x515},
                                                  slive, &svc)
                                  .spansPerSec);
                }
                return best;
            };
            double base = 0.0;
            for (size_t threads : {size_t{1}, size_t{2}, size_t{4},
                                   size_t{8}}) {
                if (threads > cores)
                    break;
                double tput = scalingRun(threads, 4);
                std::string name = "ingest_scaling_t" +
                                   std::to_string(threads) +
                                   "_s4_spans_per_sec";
                rows.push_back({name, tput, "spans/s"});
                if (threads == 1)
                    base = tput;
                else if (base > 0.0)
                    rows.push_back(
                        {"ingest_scaling_t" + std::to_string(threads) +
                             "_s4_speedup",
                         tput / base, "x"});
                std::printf("ingest scaling: %zu threads x 4 shards ->"
                            " %.0f spans/s\n",
                            threads, tput);
            }
            size_t sweep_threads = std::min<size_t>(4, cores);
            for (size_t shards : {size_t{1}, size_t{16}}) {
                double tput = scalingRun(sweep_threads, shards);
                rows.push_back(
                    {"ingest_scaling_t" +
                         std::to_string(sweep_threads) + "_s" +
                         std::to_string(shards) + "_spans_per_sec",
                     tput, "spans/s"});
                std::printf("ingest scaling: %zu threads x %zu shards"
                            " -> %.0f spans/s\n",
                            sweep_threads, shards, tput);
            }
        }
    }

    // --- Long-haul soak: hours of simulated time at a trickle rate
    // against a bounded retention budget. Evidence reported: RSS peak
    // and growth (sampled at poll boundaries), the watermark advancing
    // on every poll, and the store staying inside its span budget. ---
    if (soak) {
        online::OnlineConfig scfg = cfg;
        scfg.retention.maxSpans = 120'000;
        online::OnlineService ssvc(adapter.model(), adapter.encoder(),
                                   adapter.profile(), scfg);

        chaos::FaultSchedule ssched;
        ssched.phases.push_back({0, {}});
        // Two 2-minute fault windows near the hour marks, off-grid.
        ssched.phases.push_back({3'600'137'000, plan});
        ssched.phases.push_back({3'720'137'000, {}});
        ssched.phases.push_back({7'200'411'000, plan});
        ssched.phases.push_back({7'320'411'000, {}});

        online::LiveSourceConfig slive;
        slive.seed = 11;
        slive.requests = 24'000;
        slive.arrivalRatePerSec = 2.5; // ~9600 s ≈ 2.7 h simulated
        slive.ingestThreads = 2;
        slive.pollIntervalUs = 1'000'000;
        slive.duplicateProb = 0.01;
        slive.schedule = ssched;

        double rss_first = 0.0;
        double rss_peak = 0.0;
        int64_t prev_watermark = INT64_MIN;
        bool watermark_ok = true;
        bool store_bounded = true;
        size_t polls = 0;
        slive.onPoll = [&](int64_t watermark) {
            if (watermark <= prev_watermark)
                watermark_ok = false;
            prev_watermark = watermark;
            if (ssvc.store().totalSpans() > scfg.retention.maxSpans)
                store_bounded = false;
            // RSS sampling is comparatively expensive (a /proc read);
            // every 16th poll tracks the envelope just as well.
            if (polls++ % 16 == 0) {
                double mb = residentMb();
                if (rss_first == 0.0)
                    rss_first = mb;
                rss_peak = std::max(rss_peak, mb);
            }
        };
        online::LiveRunResult srun = online::runLiveLoad(
            app, cluster, {.seed = 0x515}, slive, &ssvc);
        double hours =
            static_cast<double>(srun.lastEventUs) / 3.6e9;
        if (!watermark_ok) {
            std::fprintf(stderr,
                         "FATAL: soak watermark stalled or went "
                         "backwards\n");
            return 1;
        }
        if (!store_bounded) {
            std::fprintf(stderr, "FATAL: soak store exceeded its "
                                 "retention budget\n");
            return 1;
        }
        rows.push_back({"soak_simulated_hours", hours, "h"});
        rows.push_back({"soak_spans_delivered",
                        static_cast<double>(srun.spansDelivered),
                        "spans"});
        rows.push_back({"soak_rss_peak_mb", rss_peak, "MiB"});
        rows.push_back(
            {"soak_rss_growth_mb", rss_peak - rss_first, "MiB"});
        rows.push_back({"soak_watermark_ok", 1.0, "bool"});
        rows.push_back({"soak_store_spans",
                        static_cast<double>(ssvc.store().totalSpans()),
                        "spans"});
        rows.push_back(
            {"soak_backlog_final_spans",
             static_cast<double>(ssvc.backlogSpans()), "spans"});
        std::printf("soak: %.2f simulated hours, %zu spans, RSS peak "
                    "%.1f MiB (+%.1f MiB), store %zu spans\n",
                    hours, srun.spansDelivered, rss_peak,
                    rss_peak - rss_first, ssvc.store().totalSpans());
    }

    std::printf("incidents: %zu opened, %zu analyzed, %zu resolved;"
                " detection p50 %.1f ms / p99 %.1f ms, RCA %.1f ms\n",
                stats.incidentsOpened, stats.incidentsAnalyzed,
                stats.incidentsResolved, p50, p99,
                analyzed > 0 ? rca_ms / static_cast<double>(analyzed)
                             : 0.0);

    util::Json doc = util::Json::array();
    for (const Row &r : rows) {
        util::Json row = util::Json::object();
        row.set("metric", r.metric);
        row.set("value", r.value);
        row.set("unit", r.unit);
        if (!r.note.empty())
            row.set("note", r.note);
        doc.push(std::move(row));
    }
    std::ofstream out(out_path);
    out << doc.dump();
    std::printf("results -> %s\n", out_path);
    return 0;
}

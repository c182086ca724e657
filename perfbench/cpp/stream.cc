// stream-storm: the serving loop. A pre-generated Poisson span stream
// with fault phases is replayed pass after pass (shifted in event
// time, trace ids made unique per pass) into one long-running durable
// OnlineService: two producer threads deliver each poll interval's
// spans, the main thread waits for them, then calls poll() (closed
// loop, replay as fast as possible).

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "chaos/fault.h"
#include "core/pipeline.h"
#include "eval/harness.h"
#include "obs/metrics.h"
#include "online/live_source.h"
#include "online/service.h"
#include "sim/simulator.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace sleuth;

/** Fixed application and deployment; the seed drives the traffic. */
constexpr uint64_t kAppSeed = 7;
constexpr int kAppRpcs = 24;
constexpr int kNodes = 12;

/** Poll interval, offered rate and duplicate share are the defaults of
    sleuth_serviced (--poll-ms, --rate, --duplicate). */
constexpr int64_t kPollUs = 250'000;
constexpr int64_t kJitterUs = 20'000;
constexpr double kDuplicateProb = 0.02;
/** Offered load in event time: one pass is 22.5 s at 400 requests/s. */
constexpr double kRequestsPerSec = 400.0;
constexpr size_t kRequestsPerPass = 9000;
constexpr size_t kProducers = 2;
constexpr size_t kSetups = 11;

/** One span delivery of the base stream. */
struct Delivery
{
    int64_t atUs = 0;
    online::SpanEvent event;
};

/** Ground truth of one generated trace. */
struct GenTrace
{
    std::string endpoint;
    int64_t rootStartUs = 0;
    int64_t lastEndUs = 0;
    bool anomalous = false;
};

struct Stream
{
    std::vector<Delivery> deliveries;
    /** First delivery index of each poll interval (plus the end). */
    std::vector<size_t> intervalBegin;
    /** Event-time length of a pass (a multiple of the poll interval). */
    int64_t passUs = 0;
    size_t uniqueSpans = 0;
    std::vector<GenTrace> traces;
    chaos::FaultSchedule schedule;
};

online::OnlineConfig
serviceConfig(const synth::AppConfig &app)
{
    // Detector and assembler settings are sleuth_serviced's.
    online::OnlineConfig cfg;
    cfg.endpoints = online::endpointProfiles(app);
    cfg.detector.bucketUs = 500'000;
    cfg.detector.windowBuckets = 8;
    cfg.assembler.latenessUs = 150'000;
    cfg.assembler.quietGapUs = 100'000;
    // Bounded retention: below two passes, so eviction always runs.
    cfg.retention.maxSpans = 200'000;
    cfg.reanalyzeOpenIncidents = true;
    return cfg;
}

/** CPU stress plus network delay on every replica of the entry
    service of the rank-th most frequent flow. */
chaos::FaultPlan
entryFault(const synth::AppConfig &app, const sim::ClusterModel &cluster,
           size_t rank)
{
    std::vector<size_t> flows(app.flows.size());
    for (size_t i = 0; i < flows.size(); ++i)
        flows[i] = i;
    std::stable_sort(flows.begin(), flows.end(), [&](size_t a, size_t b) {
        return app.flows[a].weight > app.flows[b].weight;
    });
    const synth::FlowConfig &flow = app.flows[flows[rank % flows.size()]];
    int service =
        app.rpcs[static_cast<size_t>(
                     flow.nodes[static_cast<size_t>(flow.root)].rpcId)]
            .serviceId;
    chaos::FaultPlan plan;
    for (const chaos::Instance &inst : cluster.instancesOf(service))
        for (chaos::FaultType type :
             {chaos::FaultType::CpuStress, chaos::FaultType::NetworkDelay})
            plan.faults.push_back({type, chaos::FaultScope::Container,
                                   inst.container, 20.0, 0.0});
    return plan;
}

Stream
generate(const synth::AppConfig &app, const sim::ClusterModel &cluster,
         const online::OnlineConfig &cfg, uint64_t seed)
{
    Stream s;
    // Three 1.5 s fault phases per pass, 7.5 s apart, starting off the poll
    // grid, one on the entry service of each of the three busiest
    // flows in a seeded order: every seed produces storms the
    // detector must catch, and every seed's storms cover the same
    // three flows, so the RCA work per pass does not hinge on which
    // flow a seed happens to fault.
    util::Rng chaos_rng(seed ^ 0xc4a05u);
    std::vector<size_t> ranks = {0, 1, 2};
    chaos_rng.shuffle(ranks);
    s.schedule.phases.push_back({0, {}});
    const int64_t starts[] = {1'137'000, 8'663'000, 16'191'000};
    for (size_t i = 0; i < 3; ++i) {
        s.schedule.phases.push_back(
            {starts[i], entryFault(app, cluster, ranks[i])});
        s.schedule.phases.push_back({starts[i] + 1'504'000, {}});
    }
    sim::Simulator simulator(app, cluster, {.seed = seed ^ 0x515u});
    util::Rng rng(seed);
    util::Rng delivery_rng = rng.fork(0xde11);
    const chaos::FaultPlan *active = nullptr;
    double clock = 0.0;
    for (size_t i = 0; i < kRequestsPerPass; ++i) {
        clock += rng.exponential(kRequestsPerSec / 1e6);
        int64_t arrival = static_cast<int64_t>(std::llround(clock));
        const chaos::FaultPlan &plan = s.schedule.activeAt(arrival);
        if (&plan != active) {
            simulator.setFaultPlan(plan);
            active = &plan;
        }
        sim::SimResult res = simulator.simulateOne();
        GenTrace truth;
        truth.lastEndUs = INT64_MIN;
        for (trace::Span &span : res.trace.spans) {
            span.startUs += arrival;
            span.endUs += arrival;
            truth.lastEndUs = std::max(truth.lastEndUs, span.endUs);
            if (span.parentSpanId.empty()) {
                truth.endpoint = span.service + "/" + span.name;
                truth.rootStartUs = span.startUs;
                int64_t slo = 0;
                auto it = cfg.endpoints.find(truth.endpoint);
                if (it != cfg.endpoints.end())
                    slo = it->second.sloUs;
                truth.anomalous =
                    span.hasError() ||
                    (slo > 0 && span.durationUs() > slo);
            }
            Delivery d;
            d.atUs = span.endUs + delivery_rng.uniformInt(0, kJitterUs);
            d.event.traceId = res.trace.traceId;
            d.event.span = span;
            s.deliveries.push_back(d);
            ++s.uniqueSpans;
            if (delivery_rng.bernoulli(kDuplicateProb)) {
                Delivery dup = s.deliveries.back();
                dup.atUs += delivery_rng.uniformInt(0, kJitterUs);
                s.deliveries.push_back(std::move(dup));
            }
        }
        s.traces.push_back(truth);
    }
    std::stable_sort(s.deliveries.begin(), s.deliveries.end(),
                     [](const Delivery &a, const Delivery &b) {
                         if (a.atUs != b.atUs)
                             return a.atUs < b.atUs;
                         if (a.event.traceId != b.event.traceId)
                             return a.event.traceId < b.event.traceId;
                         return a.event.span.spanId < b.event.span.spanId;
                     });
    int64_t last = s.deliveries.back().atUs;
    int64_t horizon = last + cfg.assembler.latenessUs +
                      cfg.assembler.quietGapUs + kPollUs;
    s.passUs = (horizon / kPollUs + 1) * kPollUs;
    size_t cursor = 0;
    for (int64_t poll = kPollUs; poll <= s.passUs; poll += kPollUs) {
        s.intervalBegin.push_back(cursor);
        while (cursor < s.deliveries.size() &&
               s.deliveries[cursor].atUs < poll)
            ++cursor;
    }
    s.intervalBegin.push_back(cursor);
    return s;
}

/** One poll interval's events of a pass, shifted in event time and
    re-keyed so that every pass carries fresh trace ids. */
std::vector<online::SpanEvent>
intervalEvents(const Stream &s, size_t begin, size_t end, size_t pass)
{
    std::vector<online::SpanEvent> out;
    out.reserve(end - begin);
    int64_t shift = static_cast<int64_t>(pass) * s.passUs;
    std::string suffix = std::to_string(pass);
    suffix.insert(suffix.begin(), '.');
    for (size_t i = begin; i < end; ++i) {
        online::SpanEvent e = s.deliveries[i].event;
        e.traceId += suffix;
        e.span.startUs += shift;
        e.span.endUs += shift;
        out.push_back(std::move(e));
    }
    return out;
}

/**
 * Persistent producer threads. deliver() hands each thread a strided
 * share of one interval's events and returns once all have been
 * ingested (the barrier before poll).
 */
class Producers
{
  public:
    Producers(online::OnlineService *service, size_t threads,
              Tracer *tracer)
        : service_(service), tracer_(tracer), count_(threads),
          busyNs_(threads, 0)
    {
        for (size_t t = 0; t < count_; ++t)
            threads_.emplace_back([this, t] { loop(t); });
    }

    ~Producers()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    Producers(const Producers &) = delete;
    Producers &operator=(const Producers &) = delete;

    void
    deliver(std::vector<online::SpanEvent> *events, int parentSpan,
            const std::string &request)
    {
        std::unique_lock<std::mutex> lock(mu_);
        events_ = events;
        parent_ = parentSpan;
        request_ = request;
        done_ = 0;
        ++generation_;
        cv_.notify_all();
        doneCv_.wait(lock, [this] { return done_ == count_; });
    }

    /** Nanoseconds spent inside ingest() across threads; resets. */
    int64_t
    takeBusyNs()
    {
        std::lock_guard<std::mutex> lock(mu_);
        int64_t total = 0;
        for (int64_t &b : busyNs_) {
            total += b;
            b = 0;
        }
        return total;
    }

  private:
    void
    loop(size_t index)
    {
        uint64_t seen = 0;
        size_t stride = count_;
        for (;;) {
            std::vector<online::SpanEvent> *events = nullptr;
            int parent = -1;
            std::string request;
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait(lock,
                         [&] { return stop_ || generation_ != seen; });
                if (stop_)
                    return;
                seen = generation_;
                events = events_;
                parent = parent_;
                request = request_;
            }
            int64_t t0 = tracer_->nowNs();
            for (size_t i = index; i < events->size(); i += stride)
                service_->ingest(std::move((*events)[i]));
            int64_t t1 = tracer_->nowNs();
            tracer_->record("online.ingest", t0, t1, parent, request);
            {
                std::lock_guard<std::mutex> lock(mu_);
                busyNs_[index] += t1 - t0;
                ++done_;
            }
            doneCv_.notify_one();
        }
    }

    online::OnlineService *service_;
    Tracer *tracer_;
    const size_t count_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::condition_variable doneCv_;
    bool stop_ = false;
    uint64_t generation_ = 0;
    size_t done_ = 0;
    std::vector<online::SpanEvent> *events_ = nullptr;
    int parent_ = -1;
    std::string request_;
    std::vector<int64_t> busyNs_;
    std::vector<std::thread> threads_;
};

/**
 * The same poll batches replayed through standalone components (traced
 * runs): how much of a poll is assembly, store insert and detection.
 */
struct LayerReplay
{
    online::SpanAssembler assembler;
    storage::TraceStore store;
    online::StormDetector detector;
    const online::OnlineConfig &cfg;
    double assembleMs = 0.0, insertMs = 0.0, detectMs = 0.0;

    explicit LayerReplay(const online::OnlineConfig &c)
        : assembler(c.assembler), store(c.retention),
          detector(c.detector), cfg(c)
    {
    }

    void
    poll(const std::vector<online::SpanEvent> &events, int64_t nowUs)
    {
        Clock::time_point t0 = Clock::now();
        for (const online::SpanEvent &e : events)
            assembler.add(e);
        std::vector<trace::Trace> done = assembler.drain(nowUs);
        Clock::time_point t1 = Clock::now();
        std::vector<online::Observation> obs;
        obs.reserve(done.size());
        for (trace::Trace &t : done) {
            online::Observation o;
            for (const trace::Span &s : t.spans) {
                if (!s.parentSpanId.empty())
                    continue;
                o.endpoint = s.service + "/" + s.name;
                o.startUs = s.startUs;
                o.durationUs = s.durationUs();
                o.error = s.hasError();
            }
            int64_t slo = 0;
            auto it = cfg.endpoints.find(o.endpoint);
            if (it != cfg.endpoints.end())
                slo = it->second.sloUs;
            o.anomalous = o.error || (slo > 0 && o.durationUs > slo);
            obs.push_back(std::move(o));
        }
        Clock::time_point t2 = Clock::now();
        for (trace::Trace &t : done)
            store.insert(std::move(t));
        Clock::time_point t3 = Clock::now();
        for (const online::Observation &o : obs)
            detector.observe(o);
        detector.advance(nowUs - cfg.assembler.latenessUs);
        Clock::time_point t4 = Clock::now();
        assembleMs += msBetween(t0, t1);
        insertMs += msBetween(t2, t3);
        detectMs += msBetween(t3, t4);
    }
};

struct ObsDurable
{
    double appendMs = 0, fsyncMs = 0, bytes = 0, snapMs = 0, snaps = 0;
};

ObsDurable
readDurableObs()
{
    std::map<std::string, double> o =
        parseObsText(sleuth::obs::renderText());
    return {obsValue(o, "sleuth_wal_append_ms_sum"),
            obsValue(o, "sleuth_wal_fsync_ms_sum"),
            obsValue(o, "sleuth_wal_bytes_total"),
            obsValue(o, "sleuth_snapshot_write_ms_sum"),
            obsValue(o, "sleuth_snapshot_write_ms_count")};
}

double
ratio(size_t hits, size_t misses)
{
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
}

/** A trained model and the service built on it (destroyed first). */
struct Served
{
    std::unique_ptr<eval::SleuthAdapter> adapter;
    std::unique_ptr<online::OnlineService> service;
};

/** A poll that opened an incident. */
struct Detection
{
    size_t incident = 0;
    int64_t pollUs = 0;
};

} // namespace

void
runStream(const Options &opt, RunResult *result)
{
    const std::string name = "stream-storm";

    // --- Inputs (untimed). ---
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(kAppRpcs, kAppSeed));
    sim::ClusterModel cluster(app, kNodes, kAppSeed);
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, kAppSeed);
    sim::Simulator warmup(app, cluster, {.seed = opt.seed ^ 0x9a17u});
    std::vector<trace::Trace> corpus;
    for (int i = 0; i < 400; ++i)
        corpus.push_back(warmup.simulateOne().trace);
    online::OnlineConfig cfg = serviceConfig(app);
    Stream stream = generate(app, cluster, cfg, opt.seed);
    std::string base =
        opt.outDir.empty() ? std::string(".perfbench-data") : opt.outDir;
    std::string data_dir = base + "/wal-" + name + "-s" +
                           std::to_string(opt.seed);
    durable::DurableConfig dcfg;
    dcfg.dir = data_dir;
    dcfg.fsyncPolicy = durable::FsyncPolicy::Group;
    dcfg.snapshotEveryPolls = 64;

    // --- Set-up: fit, construct the service and open the durable
    // store on a fresh data directory. It is measured kSetups
    // times: once here for the objects the run uses, then once after
    // each of the first passes, so that the median spans the run's
    // changing host conditions rather than one moment of them. ---
    std::vector<double> setup_s, train_ms;
    auto setUp = [&](const std::string &dir) {
        Served s;
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(dir, ec);
        durable::DurableConfig c = dcfg;
        c.dir = dir;
        Clock::time_point t0 = Clock::now();
        s.adapter = std::make_unique<eval::SleuthAdapter>();
        s.adapter->fit(corpus);
        Clock::time_point t1 = Clock::now();
        s.service = std::make_unique<online::OnlineService>(
            s.adapter->model(), s.adapter->encoder(), s.adapter->profile(),
            cfg);
        online::RecoveryInfo info = s.service->enableDurability(c);
        result->check(info.ok && !info.haveData,
                      name + ": durable open of a fresh data directory "
                             "failed: " + info.error);
        Clock::time_point t2 = Clock::now();
        train_ms.push_back(msBetween(t0, t1));
        setup_s.push_back(msBetween(t0, t2) / 1000.0);
        return s;
    };
    auto extraSetUp = [&] {
        std::string dir = data_dir + "-setup";
        setUp(dir);
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    };
    Served served = setUp(data_dir);
    std::unique_ptr<eval::SleuthAdapter> &adapter = served.adapter;
    std::unique_ptr<online::OnlineService> &service = served.service;

    // --- Timed passes (a traced run traces its second half). ---
    Tracer tracer(opt.trace);
    Tracer quiet(false);
    double budget_ms = opt.seconds * 1000.0;
    double untraced_budget_ms = opt.trace ? budget_ms / 2.0 : budget_ms;
    std::vector<Pass> passes_log;
    std::vector<double> incident_poll_ms;
    std::vector<double> traced_quiet_ms, traced_incident_ms;
    std::vector<RequestWall> requests;
    std::vector<Detection> detections;
    std::vector<double> snapshot_ms;
    double untraced_wall = 0, traced_wall = 0;
    size_t untraced_spans = 0, traced_spans = 0, traced_polls = 0;
    size_t delivered = 0, unique_spans = 0, backlog_max = 0;
    std::vector<double> lag_ms;
    int64_t ingest_busy_ns = 0;
    ObsDurable durable_before, durable_after;
    StageSums stages_before, stages_after;
    std::unique_ptr<LayerReplay> replay;
    size_t pass = 0;
    int64_t last_poll = 0;
    for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
        bool traced = phase == 1;
        Tracer &tr = traced ? tracer : quiet;
        double phase_budget =
            traced ? budget_ms - untraced_budget_ms : untraced_budget_ms;
        Producers pool(service.get(), kProducers, &tr);
        if (traced) {
            durable_before = readDurableObs();
            stages_before = readStages();
            replay = std::make_unique<LayerReplay>(cfg);
        }
        double elapsed = 0.0;
        while (elapsed < phase_budget) {
            int64_t shift = static_cast<int64_t>(pass) * stream.passUs;
            // Only the deliver-poll cycles are timed; each interval's
            // events are built (shifted, re-keyed) between them.
            double pass_ms = 0.0;
            Pass record;
            size_t intervals = stream.intervalBegin.size() - 1;
            for (size_t j = 0; j < intervals; ++j) {
                std::vector<online::SpanEvent> events = intervalEvents(
                    stream, stream.intervalBegin[j],
                    stream.intervalBegin[j + 1], pass);
                std::vector<online::SpanEvent> replay_events;
                if (replay)
                    replay_events = events;
                int64_t now = shift + static_cast<int64_t>(j + 1) * kPollUs;
                Clock::time_point r0 = Clock::now();
                std::string request;
                if (traced)
                    request = name + "/" + std::to_string(pass) + "." +
                              std::to_string(j);
                size_t incidents_before = service->incidents().size();
                size_t snap_before =
                    incidents_before > 0
                        ? service->incidents().back().snapshotMaxRecordId
                        : 0;
                int64_t win_before =
                    incidents_before > 0
                        ? service->incidents().back().windowEndUs
                        : 0;

                int deliver = tr.open("online.deliver", -1, request);
                pool.deliver(&events, deliver, request);
                tr.close(deliver);
                int64_t p0 = tr.nowNs();
                Clock::time_point t0 = Clock::now();
                service->poll(now);
                Clock::time_point t1 = Clock::now();
                int64_t p1 = tr.nowNs();
                last_poll = now;

                const std::vector<online::Incident> &inc =
                    service->incidents();
                bool analyzed =
                    inc.size() > incidents_before ||
                    (!inc.empty() &&
                     (inc.back().snapshotMaxRecordId != snap_before ||
                      inc.back().windowEndUs != win_before));
                if (inc.size() > incidents_before)
                    detections.push_back({inc.size() - 1, now});
                double ms = msBetween(t0, t1);
                tr.record("online.poll", p0, p1, -1, request);
                if (!traced) {
                    record.latencies.push_back(ms);
                    if (analyzed)
                        incident_poll_ms.push_back(ms);
                } else {
                    (analyzed ? traced_incident_ms : traced_quiet_ms)
                        .push_back(ms);
                    backlog_max =
                        std::max(backlog_max, service->backlogSpans());
                    lag_ms.push_back(
                        static_cast<double>(now - service->watermarkUs()) /
                        1000.0);
                    {
                        int rs = tr.open("bench.replay", -1, request);
                        replay->poll(replay_events, now);
                        if (analyzed) {
                            // The snapshot the incident poll built:
                            // window query plus row materialization.
                            const online::Incident &last = inc.back();
                            Clock::time_point s0 = Clock::now();
                            storage::Query q;
                            q.minStartUs = last.windowStartUs;
                            q.maxStartUs = last.windowEndUs;
                            size_t n = 0;
                            for (const storage::Record *r :
                                 service->store().query(q))
                                n += r->trace().spans.size();
                            snapshot_ms.push_back(
                                msBetween(s0, Clock::now()));
                            (void)n;
                        }
                        tr.close(rs);
                    }
                    ++traced_polls;
                }
                double wall = msBetween(r0, Clock::now());
                pass_ms += wall;
                if (traced)
                    requests.push_back({request, wall, "online.poll"});
            }
            delivered += stream.deliveries.size();
            unique_spans += stream.uniqueSpans;
            if (traced) {
                traced_wall += pass_ms;
                traced_spans += stream.deliveries.size();
            } else {
                untraced_wall += pass_ms;
                untraced_spans += stream.deliveries.size();
                record.rate = static_cast<double>(stream.deliveries.size()) /
                              (pass_ms / 1000.0);
                record.rssMb = residentMb();
                passes_log.push_back(std::move(record));
                if (setup_s.size() < kSetups)
                    extraSetUp();
            }
            elapsed += pass_ms;
            ++pass;
        }
        if (traced) {
            ingest_busy_ns = pool.takeBusyNs();
            durable_after = readDurableObs();
            stages_after = readStages();
        }
    }
    while (setup_s.size() < kSetups)
        extraSetUp();
    Clock::time_point d0 = Clock::now();
    service->drainAll(last_poll + kPollUs);
    double drain_ms = msBetween(d0, Clock::now());
    const storage::TraceStore &live_store = service->store();
    double store_bytes = static_cast<double>(live_store.memoryBytes());
    double store_spans = static_cast<double>(live_store.totalSpans());
    double evicted_spans = static_cast<double>(live_store.evictions().spans);

    // --- Checks (untimed). ---
    online::OnlineStats stats = service->stats();
    size_t sent = delivered + (opt.brk == Break::DropSpan ? 1 : 0);
    const collector::CollectorStats &as = stats.assembly;
    size_t drops = as.droppedOrphan + as.droppedDuplicate + as.droppedLate +
                   as.droppedMalformed + as.droppedBackpressure +
                   as.droppedRingFull + as.droppedShed;
    size_t backlog = service->backlogSpans();
    result->check(stats.spansIngested == sent,
                  name + ": sent " + std::to_string(sent) +
                      " spans but the service saw " +
                      std::to_string(stats.spansIngested));
    result->check(as.spansAccepted + drops + backlog == sent,
                  name + ": accepted " + std::to_string(as.spansAccepted) +
                      " + drops " + std::to_string(drops) + " + backlog " +
                      std::to_string(backlog) + " != sent " +
                      std::to_string(sent));
    size_t reached = std::min(as.spansAccepted, unique_spans);
    result->attempted = unique_spans;
    result->failed = unique_spans - reached;

    const std::vector<online::Incident> &incidents = service->incidents();
    char line[240];
    // Each incident's ranking must equal a batch analysis of the
    // snapshot it stored.
    core::SleuthPipeline batch(adapter->model(), adapter->encoder(),
                               adapter->profile(), cfg.pipeline);
    size_t checked = 0, mismatched = 0;
    for (const online::Incident &inc : incidents) {
        if (inc.state == online::Incident::State::Open)
            continue;
        core::PipelineResult r =
            batch.analyze(inc.anomalousTraces, inc.slos);
        auto ranked = core::aggregateRootCauses(r);
        if (opt.brk == Break::IncidentMismatch && checked == 0)
            ranked.emplace_back("corrupt", 1);
        if (ranked != inc.rankedRootCauses)
            ++mismatched;
        ++checked;
    }
    result->check(checked > 0, name + ": no incident was analyzed");
    result->check(mismatched == 0,
                  name + ": " + std::to_string(mismatched) + " of " +
                      std::to_string(checked) +
                      " incident rankings differ from a batch "
                      "analysis of the same snapshot");
    std::snprintf(line, sizeof(line),
                  "%s: %zu incidents, %zu rankings re-checked against "
                  "batch analyze",
                  name.c_str(), incidents.size(), checked);
    result->notes.push_back(line);

    // Detection latency against the generated truth: the detecting
    // poll minus the earliest anomalous root start of the phase.
    std::vector<double> lat, gap, bucket, wait;
    for (const Detection &d : detections) {
        const online::Incident &inc = incidents[d.incident];
        int64_t local = d.pollUs % stream.passUs;
        int64_t phase_start = INT64_MIN;
        for (const chaos::FaultPhase &ph : stream.schedule.phases)
            if (ph.startUs <= local && !ph.plan.empty())
                phase_start = ph.startUs;
        if (phase_start == INT64_MIN)
            continue;
        std::set<std::string> eps(inc.endpoints.begin(),
                                  inc.endpoints.end());
        int64_t onset = INT64_MAX;
        std::vector<int64_t> ready;
        for (const GenTrace &t : stream.traces) {
            if (!t.anomalous || t.rootStartUs < phase_start ||
                t.rootStartUs > local)
                continue;
            onset = std::min(onset, t.rootStartUs);
            if (eps.count(t.endpoint))
                ready.push_back(t.lastEndUs + cfg.assembler.quietGapUs +
                                cfg.assembler.latenessUs);
        }
        if (onset == INT64_MAX)
            continue;
        double l = static_cast<double>(local - onset) / 1000.0;
        lat.push_back(l);
        size_t need = static_cast<size_t>(cfg.detector.minAnomalous);
        if (ready.size() < need)
            continue;
        std::nth_element(ready.begin(), ready.begin() + (need - 1),
                         ready.end());
        int64_t r = ready[need - 1];
        int64_t r_poll = (r + kPollUs - 1) / kPollUs * kPollUs;
        gap.push_back(static_cast<double>(r - onset) / 1000.0);
        wait.push_back(static_cast<double>(r_poll - r) / 1000.0);
        bucket.push_back(static_cast<double>(local - r_poll) / 1000.0);
    }
    result->check(!lat.empty(), name + ": no storm was detected");
    result->detail["detect_latency_p50_ms"] = {median(lat), "ms"};
    result->detail["incident_poll_ms"] = {median(incident_poll_ms),
                                          "ms"};
    result->perLayer["online.detect_latency_p50_ms"] = {median(lat),
                                                        "ms"};
    result->perLayer["online.incident_poll_ms"] = {
        median(incident_poll_ms), "ms"};
    result->perLayer["online.detect_quiet_gap_ms"] = {median(gap), "ms"};
    result->perLayer["online.detect_bucket_wait_ms"] = {median(bucket),
                                                        "ms"};
    result->perLayer["online.detect_poll_wait_ms"] = {median(wait),
                                                      "ms"};
    core::PipelineCache::Stats cs = service->cache().stats();
    result->perLayer["core.cache_hit.encoding"] = {
        ratio(cs.encodingHits, cs.encodingMisses), "ratio"};
    result->perLayer["core.cache_hit.distance"] = {
        ratio(cs.distanceHits, cs.distanceMisses), "ratio"};
    result->perLayer["core.cache_hit.verdict"] = {
        ratio(cs.verdictHits, cs.verdictMisses), "ratio"};

    // Recovery: a fresh service must rebuild the exact live state.
    uint64_t live = service->servingFingerprint();
    size_t live_spans = service->store().totalSpans();
    service.reset();
    online::OnlineService fresh(adapter->model(), adapter->encoder(),
                                adapter->profile(), cfg);
    Clock::time_point r0 = Clock::now();
    online::RecoveryInfo info = fresh.enableDurability(dcfg);
    double recover_ms = msBetween(r0, Clock::now());
    uint64_t recovered = fresh.servingFingerprint() ^
                         (opt.brk == Break::RecoveryDrift ? 1 : 0);
    result->check(info.ok, name + ": recovery failed: " + info.error);
    result->check(recovered == live,
                  name + ": recovered serving fingerprint differs "
                         "from the live one");
    std::snprintf(line, sizeof(line),
                  "%s: recovered %zu spans (%llu frames) in %.3f ms; "
                  "fingerprint %016llx",
                  name.c_str(), live_spans,
                  static_cast<unsigned long long>(info.framesReplayed),
                  recover_ms, static_cast<unsigned long long>(live));
    result->notes.push_back(line);
    result->detail["recover_ms"] = {recover_ms, "ms"};
    result->perLayer["durable.recover_ms"] = {recover_ms, "ms"};
    result->perLayer["durable.recover_frames"] = {
        static_cast<double>(info.framesReplayed), "count"};
    result->perLayer["durable.recover_ms_per_mspan"] = {
        live_spans > 0 ? recover_ms / (static_cast<double>(live_spans) /
                                       1e6)
                       : 0.0,
        "ms"};
    std::error_code ec;
    std::filesystem::remove_all(data_dir, ec);

    // --- End-to-end metrics (untraced phase). ---
    PassStats ps = passStats(passes_log);
    double rate = ps.rate;
    double tail = ps.tail;
    result->endToEnd["setup_s"] = {median(setup_s), "s"};
    result->endToEnd["throughput_per_s"] = {rate, "1/s"};
    result->endToEnd["request_p50_ms"] = {ps.p50, "ms"};
    result->endToEnd["request_tail_ms"] = {tail, "ms"};
    result->endToEnd["rss_mb"] = {ps.rssMb, "MiB"};
    result->endToEnd["complete_frac"] = {
        static_cast<double>(reached) /
            static_cast<double>(std::max<size_t>(1, unique_spans)),
        "ratio"};
    result->notes.push_back(describe(name, ps, "polls"));
    std::snprintf(line, sizeof(line),
                  "%s: a pass is %zu deliveries (%zu unique spans) in %zu "
                  "polls; final drain %.3f ms",
                  name.c_str(), stream.deliveries.size(), stream.uniqueSpans,
                  stream.intervalBegin.size() - 1, drain_ms);
    result->notes.push_back(line);
    result->detail["serve_spans_per_s"] = {rate, "spans/s"};
    result->detail["poll_p50_ms"] = {ps.p50, "ms"};
    result->detail["poll_tail_ms"] = {tail, "ms"};

    // --- Per-layer metrics. ---
    result->perLayer["core.train_ms"] = {median(train_ms), "ms"};
    result->perLayer["online.lost.ring_full"] = {
        static_cast<double>(as.droppedRingFull), "count"};
    result->perLayer["online.lost.shed"] = {
        static_cast<double>(as.droppedShed), "count"};
    result->perLayer["online.lost.late"] = {
        static_cast<double>(as.droppedLate), "count"};
    result->perLayer["online.lost.orphan"] = {
        static_cast<double>(as.droppedOrphan), "count"};
    if (!opt.trace)
        return;
    double polls = static_cast<double>(std::max<size_t>(1, traced_polls));
    std::vector<Span> spans = tracer.spans();
    std::map<std::string, double> raw = ledgerMs(spans);
    result->perLayer["online.ingest_ns_per_span"] = {
        static_cast<double>(ingest_busy_ns) /
            static_cast<double>(std::max<size_t>(1, traced_spans)),
        "ns"};
    result->perLayer["online.deliver_ms"] = {
        (raw["online.deliver"] + raw["online.ingest"]) / polls, "ms"};
    result->perLayer["online.poll_quiet_ms"] = {median(traced_quiet_ms),
                                                "ms"};
    result->perLayer["online.poll_incident_ms"] = {
        median(traced_incident_ms), "ms"};
    result->perLayer["online.backlog_spans_max"] = {
        static_cast<double>(backlog_max), "count"};
    result->perLayer["online.watermark_lag_ms"] = {median(lag_ms), "ms"};
    result->perLayer["bench.replay_ms"] = {raw["bench.replay"] / polls,
                                           "ms"};
    result->perLayer["bench.trace_overhead_pct"] = {
        100.0 * ((traced_wall / static_cast<double>(std::max<size_t>(
                                    1, traced_spans))) /
                     (untraced_wall /
                      static_cast<double>(std::max<size_t>(1, untraced_spans))) -
                 1.0),
        "%"};
    if (store_spans > 0) {
        result->perLayer["storage.bytes_per_span"] = {store_bytes /
                                                          store_spans,
                                                      "bytes"};
        result->perLayer["storage.evicted_spans"] = {evicted_spans,
                                                     "count"};
    }
    const ObsDurable &now = durable_after;
    double append = now.appendMs - durable_before.appendMs;
    double fsync = now.fsyncMs - durable_before.fsyncMs;
    double snap_write = now.snapMs - durable_before.snapMs;
    double snaps = now.snaps - durable_before.snaps;
    result->perLayer["durable.wal_append_ms"] = {append / polls, "ms"};
    result->perLayer["durable.wal_fsync_ms"] = {fsync / polls, "ms"};
    result->perLayer["durable.wal_bytes_per_span"] = {
        (now.bytes - durable_before.bytes) /
            static_cast<double>(std::max<size_t>(1, traced_spans)),
        "bytes"};
    result->perLayer["durable.snapshot_ms"] = {
        snaps > 0 ? snap_write / snaps : 0.0, "ms"};
    result->perLayer["online.assemble_ms"] = {replay->assembleMs / polls,
                                              "ms"};
    result->perLayer["storage.insert_ms"] = {replay->insertMs / polls, "ms"};
    result->perLayer["online.detect_ms"] = {replay->detectMs / polls, "ms"};
    StageSums st = stages_after - stages_before;
    double snapshot_read = 0.0;
    for (double v : snapshot_ms)
        snapshot_read += v;
    double ipolls =
        static_cast<double>(std::max<size_t>(1, traced_incident_ms.size()));
    result->perLayer["core.encode_ms"] = {st.encode / ipolls, "ms"};
    result->perLayer["distance.matrix_ms"] = {st.distance / ipolls, "ms"};
    result->perLayer["cluster.hdbscan_ms"] = {st.cluster / ipolls, "ms"};
    result->perLayer["core.rca_ms"] = {st.rca / ipolls, "ms"};
    result->perLayer["storage.snapshot_ms"] = {median(snapshot_ms), "ms"};
    // Every poll's time, split by the replays (assemble, insert,
    // detect, snapshot read), the WAL families and the pipeline stages.
    Attribution poll{"online.poll",
                     {{"online.assemble_ms", replay->assembleMs},
                      {"storage.insert_ms", replay->insertMs},
                      {"online.detect_ms", replay->detectMs},
                      {"durable.wal_append_ms", append},
                      {"durable.wal_fsync_ms", fsync},
                      {"durable.snapshot_ms", snap_write},
                      {"core.encode_ms", st.encode},
                      {"distance.matrix_ms", st.distance},
                      {"cluster.hdbscan_ms", st.cluster},
                      {"core.rca_ms", st.rca},
                      {"storage.snapshot_ms", snapshot_read}},
                     "online.poll_other_ms"};
    if (opt.brk == Break::LoseSpan)
        loseLargestTopSpan(&spans);
    std::map<std::string, double> rows =
        reconcile(spans, requests, traced_wall, {poll}, result);
    result->perLayer["online.poll_other_ms"] = {
        rows["online.poll_other_ms"] / polls, "ms"};
    if (!opt.outDir.empty())
        tracer.write(opt.outDir + "/spans-" + name + "-s" +
                     std::to_string(opt.seed) + ".jsonl");
}

} // namespace perfbench

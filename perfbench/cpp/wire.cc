// ingest-wire: batch collector ingest of OTel, Zipkin and Jaeger JSON
// payloads (with a stated share of defective traces) into a TraceStore,
// interleaved with TraceStore::query reads. Closed loop, one caller.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>

#include "bench.h"
#include "collector/collector.h"
#include "eval/harness.h"
#include "sim/simulator.h"
#include "storage/trace_store.h"
#include "synth/generator.h"
#include "trace/trace_json.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using namespace sleuth;

constexpr uint64_t kAppSeed = 7;
constexpr int kAppRpcs = 24;
constexpr int kNodes = 12;
constexpr size_t kSetups = 11;

/** Corpus of one round: traces, grouped into payloads. */
constexpr size_t kTraces = 1536;
constexpr size_t kTracesPerPayload = 24;
/** Payload protocol mix, repeating: 2 OTel, 1 Zipkin, 1 Jaeger. */
const collector::Protocol kMix[] = {
    collector::Protocol::Otel, collector::Protocol::Zipkin,
    collector::Protocol::Otel, collector::Protocol::Jaeger};
/** One trace in this many is made defective (orphan, dup, cycle). */
constexpr size_t kDefectEvery = 50;
/** Three queries (window, service, anomalous) after this many payloads. */
constexpr size_t kQueryEvery = 8;
/** Mean gap between trace arrivals on the event-time line. */
constexpr double kArrivalGapUs = 2500.0;

enum class Defect { None, Orphan, Duplicate, Cycle };

struct Payload
{
    collector::Protocol protocol = collector::Protocol::Otel;
    std::string body;
    size_t spans = 0;
    /** Indices into the corpus of the traces it carries. */
    std::vector<size_t> traces;
};

/** What the benchmark knows about each corpus trace. */
struct Truth
{
    std::string traceId;
    int64_t rootStartUs = 0;
    bool anomalous = false;
    std::set<std::string> services;
    Defect defect = Defect::None;
    size_t spans = 0;
};

const char *
kindName(trace::SpanKind k)
{
    switch (k) {
      case trace::SpanKind::Client: return "client";
      case trace::SpanKind::Server: return "server";
      case trace::SpanKind::Producer: return "producer";
      case trace::SpanKind::Consumer: return "consumer";
      case trace::SpanKind::Local: return "internal";
    }
    return "internal";
}

util::Json
zipkinPayload(const std::vector<const trace::Trace *> &traces)
{
    util::Json arr = util::Json::array();
    for (const trace::Trace *t : traces) {
        for (const trace::Span &s : t->spans) {
            util::Json j = util::Json::object();
            j.set("traceId", t->traceId);
            j.set("id", s.spanId);
            if (!s.parentSpanId.empty())
                j.set("parentId", s.parentSpanId);
            j.set("name", s.name);
            if (s.kind != trace::SpanKind::Local) {
                std::string k = kindName(s.kind);
                for (char &c : k)
                    c = static_cast<char>(std::toupper(c));
                j.set("kind", k);
            }
            j.set("timestamp", s.startUs);
            j.set("duration", s.endUs - s.startUs);
            util::Json ep = util::Json::object();
            ep.set("serviceName", s.service);
            j.set("localEndpoint", std::move(ep));
            if (s.hasError()) {
                util::Json tags = util::Json::object();
                tags.set("error", "true");
                j.set("tags", std::move(tags));
            }
            arr.push(std::move(j));
        }
    }
    return arr;
}

util::Json
jaegerPayload(const std::vector<const trace::Trace *> &traces)
{
    util::Json data = util::Json::array();
    for (const trace::Trace *t : traces) {
        util::Json entry = util::Json::object();
        entry.set("traceID", t->traceId);
        util::Json spans = util::Json::array();
        util::Json processes = util::Json::object();
        std::map<std::string, std::string> pids;
        for (const trace::Span &s : t->spans) {
            auto [it, fresh] = pids.try_emplace(
                s.service, "p" + std::to_string(pids.size() + 1));
            if (fresh) {
                util::Json p = util::Json::object();
                p.set("serviceName", s.service);
                processes.set(it->second, std::move(p));
            }
            util::Json j = util::Json::object();
            j.set("traceID", t->traceId);
            j.set("spanID", s.spanId);
            j.set("operationName", s.name);
            util::Json refs = util::Json::array();
            if (!s.parentSpanId.empty()) {
                util::Json r = util::Json::object();
                r.set("refType", "CHILD_OF");
                r.set("traceID", t->traceId);
                r.set("spanID", s.parentSpanId);
                refs.push(std::move(r));
            }
            j.set("references", std::move(refs));
            j.set("startTime", s.startUs);
            j.set("duration", s.endUs - s.startUs);
            j.set("processID", it->second);
            util::Json tags = util::Json::array();
            util::Json kind = util::Json::object();
            kind.set("key", "span.kind");
            kind.set("type", "string");
            kind.set("value", kindName(s.kind));
            tags.push(std::move(kind));
            if (s.hasError()) {
                util::Json err = util::Json::object();
                err.set("key", "error");
                err.set("type", "bool");
                err.set("value", true);
                tags.push(std::move(err));
            }
            j.set("tags", std::move(tags));
            spans.push(std::move(j));
        }
        entry.set("spans", std::move(spans));
        entry.set("processes", std::move(processes));
        data.push(std::move(entry));
    }
    util::Json doc = util::Json::object();
    doc.set("data", std::move(data));
    return doc;
}

/** Break one trace the way a faulty client would. */
void
injectDefect(trace::Trace *t, Defect d)
{
    // Pick the last non-root span (traces have at least two spans here).
    size_t victim = t->spans.size() - 1;
    while (victim > 0 && t->spans[victim].parentSpanId.empty())
        --victim;
    switch (d) {
      case Defect::None: break;
      case Defect::Orphan:
        t->spans[victim].parentSpanId = "missing-parent";
        break;
      case Defect::Duplicate:
        t->spans.push_back(t->spans[victim]);
        break;
      case Defect::Cycle:
        // The root now points at a descendant: no root remains.
        for (trace::Span &s : t->spans)
            if (s.parentSpanId.empty())
                s.parentSpanId = t->spans[victim].spanId;
        break;
    }
}

collector::DropReason
expectedReason(Defect d)
{
    switch (d) {
      case Defect::Orphan: return collector::DropReason::Orphan;
      case Defect::Duplicate: return collector::DropReason::Duplicate;
      default: return collector::DropReason::Malformed;
    }
}

std::vector<std::string>
traceIds(const std::vector<const storage::Record *> &records)
{
    std::vector<std::string> out;
    out.reserve(records.size());
    for (const storage::Record *r : records)
        out.push_back(r->traceId());
    std::sort(out.begin(), out.end());
    return out;
}

struct QueryCase
{
    storage::Query query;
    /** Traces inserted when it ran (a prefix of the corpus order). */
    size_t insertedPayloads = 0;
    /** Records returned (stable: nothing is evicted within a round). */
    std::vector<const storage::Record *> got;
};

} // namespace

void
runIngestWire(const Options &opt, RunResult *result)
{
    // --- Inputs (untimed). ---
    synth::AppConfig app =
        synth::generateApp(synth::syntheticParams(kAppRpcs, kAppSeed));
    sim::ClusterModel cluster(app, kNodes, kAppSeed);
    sim::Simulator::calibrateSlos(app, cluster, 300, 99.0, kAppSeed);
    sim::Simulator sim(app, cluster, {.seed = opt.seed ^ 0x3a7eu});
    std::vector<trace::Trace> corpus;
    for (int i = 0; i < 400; ++i)
        corpus.push_back(sim.simulateOne().trace);
    util::Rng rng(opt.seed);
    std::vector<trace::Trace> traces;
    std::vector<Truth> truth;
    std::vector<int64_t> durations;
    double clock = 0.0;
    for (size_t i = 0; i < kTraces; ++i) {
        sim::SimResult r = sim.simulateOne();
        clock += rng.exponential(1.0 / kArrivalGapUs);
        int64_t shift = static_cast<int64_t>(clock);
        for (trace::Span &s : r.trace.spans) {
            s.startUs += shift;
            s.endUs += shift;
        }
        durations.push_back(r.trace.rootDurationUs());
        traces.push_back(std::move(r.trace));
    }
    // One SLO for every payload: the 90th percentile root duration.
    std::vector<int64_t> sorted = durations;
    std::sort(sorted.begin(), sorted.end());
    int64_t slo = sorted[sorted.size() * 9 / 10];
    size_t defects = 0;
    for (size_t i = 0; i < traces.size(); ++i) {
        trace::Trace &t = traces[i];
        Truth tr;
        tr.traceId = t.traceId;
        for (const trace::Span &s : t.spans) {
            tr.services.insert(s.service);
            if (s.parentSpanId.empty()) {
                tr.rootStartUs = s.startUs;
                tr.anomalous = s.hasError() || s.durationUs() > slo;
            }
        }
        if (t.spans.size() >= 2 && i % kDefectEvery == kDefectEvery / 2) {
            tr.defect = static_cast<Defect>(1 + defects % 3);
            injectDefect(&t, tr.defect);
            ++defects;
        }
        tr.spans = t.spans.size();
        truth.push_back(std::move(tr));
    }
    std::vector<Payload> payloads;
    size_t total_spans = 0;
    for (size_t b = 0; b < traces.size(); b += kTracesPerPayload) {
        Payload p;
        p.protocol = kMix[payloads.size() % std::size(kMix)];
        std::vector<const trace::Trace *> group;
        for (size_t i = b; i < std::min(traces.size(), b + kTracesPerPayload);
             ++i) {
            group.push_back(&traces[i]);
            p.traces.push_back(i);
            p.spans += traces[i].spans.size();
        }
        if (p.protocol == collector::Protocol::Otel) {
            std::vector<trace::Trace> copy;
            for (const trace::Trace *t : group)
                copy.push_back(*t);
            p.body = trace::toJson(copy).dump();
        } else if (p.protocol == collector::Protocol::Zipkin) {
            p.body = zipkinPayload(group).dump();
        } else {
            p.body = jaegerPayload(group).dump();
        }
        total_spans += p.spans;
        payloads.push_back(std::move(p));
    }
    std::vector<std::string> service_names;
    for (const synth::ServiceConfig &s : app.services)
        service_names.push_back(s.name);

    // --- Set-up: the model is trained even though this workload does
    // not analyze, so set-up time means the same in every workload. It
    // is measured once here and once after each of the first rounds. ---
    std::vector<double> setup_s, train_ms;
    auto setUp = [&] {
        Clock::time_point t0 = Clock::now();
        eval::SleuthAdapter adapter;
        adapter.fit(corpus);
        Clock::time_point t1 = Clock::now();
        storage::TraceStore store;
        collector::TraceCollector collector(&store);
        Clock::time_point t2 = Clock::now();
        train_ms.push_back(msBetween(t0, t1));
        setup_s.push_back(msBetween(t0, t2) / 1000.0);
    };
    setUp();

    // --- Timed rounds: each round ingests the whole corpus into a fresh
    // store, with queries interleaved. ---
    Tracer tracer(opt.trace);
    Tracer quiet(false);
    double budget_ms = opt.seconds * 1000.0;
    double untraced_budget_ms = opt.trace ? budget_ms / 2.0 : budget_ms;
    std::vector<Pass> passes_log;
    std::vector<double> query_ms, traced_query_ms;
    std::vector<RequestWall> requests;
    double untraced_wall = 0, traced_wall = 0;
    size_t untraced_rounds = 0, traced_rounds = 0;
    double parse_ms = 0;
    std::map<collector::Protocol, double> decode_ms;
    size_t wellformed_attempted = 0, wellformed_stored = 0;
    size_t round = 0;
    util::Rng query_rng(opt.seed ^ 0x9e77u);
    for (int phase = 0; phase < (opt.trace ? 2 : 1); ++phase) {
        bool traced = phase == 1;
        Tracer &tr = traced ? tracer : quiet;
        double phase_budget =
            traced ? budget_ms - untraced_budget_ms : untraced_budget_ms;
        double elapsed = 0.0;
        while (elapsed < phase_budget) {
            storage::TraceStore store;
            collector::TraceCollector collector(&store);
            std::vector<QueryCase> cases;
            Pass record;
            Clock::time_point round_start = Clock::now();
            for (size_t pi = 0; pi < payloads.size(); ++pi) {
                const Payload &p = payloads[pi];
                Clock::time_point r0 = Clock::now();
                std::string request;
                if (traced)
                    request = "ingest-wire/" + std::to_string(round) + "." +
                              std::to_string(pi);
                int span = tr.open("collector.ingest", -1, request);
                Clock::time_point t0 = Clock::now();
                collector.ingest(p.body, p.protocol, slo);
                Clock::time_point t1 = Clock::now();
                tr.close(span);
                if (!traced)
                    record.latencies.push_back(msBetween(t0, t1));
                if (traced) {
                    // The same payload through the parser and decoder
                    // alone: the part of ingest that is wire decoding.
                    int rs = tr.open("bench.replay", -1, request);
                    Clock::time_point a, b, c;
                    {
                        a = Clock::now();
                        util::Json doc = util::Json::parse(p.body);
                        b = Clock::now();
                        std::vector<trace::Trace> decoded;
                        switch (p.protocol) {
                          case collector::Protocol::Otel:
                            decoded = collector::parseOtel(doc);
                            break;
                          case collector::Protocol::Zipkin:
                            decoded = collector::parseZipkin(doc);
                            break;
                          case collector::Protocol::Jaeger:
                            decoded = collector::parseJaeger(doc);
                            break;
                        }
                        c = Clock::now();
                    }
                    tr.close(rs);
                    parse_ms += msBetween(a, b);
                    decode_ms[p.protocol] += msBetween(b, c);
                    requests.push_back({request, msBetween(r0, Clock::now()),
                                        "collector.ingest"});
                }
                if ((pi + 1) % kQueryEvery != 0)
                    continue;
                // Three reads against what is stored so far.
                int64_t hi = truth[p.traces.back()].rootStartUs;
                int64_t w = static_cast<int64_t>(kArrivalGapUs * 64);
                int64_t lo = query_rng.uniformInt(
                    std::max<int64_t>(0, hi - 8 * w), hi);
                storage::Query window;
                window.minStartUs = lo;
                window.maxStartUs = lo + w;
                storage::Query by_service;
                by_service.service = service_names[static_cast<size_t>(
                    query_rng.uniformInt(
                        0, static_cast<int64_t>(service_names.size()) - 1))];
                storage::Query anomalous;
                anomalous.onlyAnomalous = true;
                anomalous.minStartUs = lo - 4 * w;
                for (storage::Query q : {window, by_service, anomalous}) {
                    Clock::time_point w0 = Clock::now();
                    std::string qreq;
                    if (traced)
                        qreq = request + ".q" + std::to_string(cases.size());
                    int qs = tr.open("storage.query", -1, qreq);
                    Clock::time_point q0 = Clock::now();
                    std::vector<const storage::Record *> got =
                        store.query(q);
                    Clock::time_point q1 = Clock::now();
                    tr.close(qs);
                    (traced ? traced_query_ms : query_ms)
                        .push_back(msBetween(q0, q1));
                    if (traced)
                        requests.push_back({qreq, msBetween(w0, Clock::now()),
                                            "storage.query"});
                    cases.push_back({q, pi + 1, std::move(got)});
                }
            }
            double round_ms = msBetween(round_start, Clock::now());

            // --- Checks (untimed). ---
            const collector::CollectorStats &st = collector.stats();
            size_t want_rejected = 0;
            std::map<collector::DropReason, size_t> want_spans;
            std::set<std::string> stored_ids;
            for (const storage::Record *r : store.query(storage::Query{}))
                stored_ids.insert(r->traceId());
            size_t leaked = 0;
            for (const Truth &t : truth) {
                bool in_store = stored_ids.count(t.traceId) > 0;
                if (t.defect == Defect::None) {
                    ++wellformed_attempted;
                    if (in_store)
                        ++wellformed_stored;
                } else {
                    ++want_rejected;
                    want_spans[expectedReason(t.defect)] += t.spans;
                    leaked += in_store ? 1 : 0;
                }
            }
            if (opt.brk == Break::SkipDefect) {
                ++want_rejected;
                want_spans[collector::DropReason::Orphan] += 1;
            }
            result->check(
                st.tracesRejected == want_rejected && leaked == 0,
                "ingest-wire: " + std::to_string(st.tracesRejected) +
                    " traces rejected, " + std::to_string(leaked) +
                    " defective stored; want " +
                    std::to_string(want_rejected) + " rejected");
            result->check(
                st.droppedOrphan ==
                        want_spans[collector::DropReason::Orphan] &&
                    st.droppedDuplicate ==
                        want_spans[collector::DropReason::Duplicate] &&
                    st.droppedMalformed ==
                        want_spans[collector::DropReason::Malformed],
                "ingest-wire: drop reasons (orphan " +
                    std::to_string(st.droppedOrphan) + ", duplicate " +
                    std::to_string(st.droppedDuplicate) + ", malformed " +
                    std::to_string(st.droppedMalformed) +
                    " spans) differ from the injected defects");
            size_t wrong = 0;
            for (size_t ci = 0; ci < cases.size(); ++ci) {
                const QueryCase &c = cases[ci];
                std::vector<std::string> want;
                for (size_t pi = 0; pi < c.insertedPayloads; ++pi) {
                    for (size_t ti : payloads[pi].traces) {
                        const Truth &t = truth[ti];
                        if (t.defect != Defect::None)
                            continue;
                        const storage::Query &q = c.query;
                        if (q.minStartUs && t.rootStartUs < *q.minStartUs)
                            continue;
                        if (q.maxStartUs && t.rootStartUs >= *q.maxStartUs)
                            continue;
                        if (q.service && !t.services.count(*q.service))
                            continue;
                        if (q.onlyAnomalous && !t.anomalous)
                            continue;
                        want.push_back(t.traceId);
                    }
                }
                std::sort(want.begin(), want.end());
                if (opt.brk == Break::QueryMismatch && ci == 0 &&
                    !want.empty())
                    want.pop_back();
                if (want != traceIds(c.got))
                    ++wrong;
            }
            result->check(wrong == 0,
                          "ingest-wire: " + std::to_string(wrong) + " of " +
                              std::to_string(cases.size()) +
                              " query results differ from a brute-force "
                              "filter of the inserted traces");

            if (traced) {
                traced_wall += round_ms;
                ++traced_rounds;
            } else {
                untraced_wall += round_ms;
                ++untraced_rounds;
                record.rate = static_cast<double>(total_spans) /
                              (round_ms / 1000.0);
                record.rssMb = residentMb();
                passes_log.push_back(std::move(record));
                if (setup_s.size() < kSetups)
                    setUp();
            }
            elapsed += round_ms;
            ++round;
        }
    }

    while (setup_s.size() < kSetups)
        setUp();

    // --- End-to-end metrics (untraced phase). ---
    PassStats ps = passStats(passes_log);
    double rate = ps.rate;
    result->endToEnd["setup_s"] = {median(setup_s), "s"};
    result->endToEnd["throughput_per_s"] = {rate, "1/s"};
    result->endToEnd["request_p50_ms"] = {ps.p50, "ms"};
    result->endToEnd["request_tail_ms"] = {ps.tail, "ms"};
    result->endToEnd["rss_mb"] = {ps.rssMb, "MiB"};
    result->endToEnd["complete_frac"] = {
        static_cast<double>(wellformed_stored) /
            static_cast<double>(std::max<size_t>(1, wellformed_attempted)),
        "ratio"};
    result->attempted = wellformed_attempted;
    result->failed = wellformed_attempted - wellformed_stored;
    char line[240];
    result->notes.push_back(describe("ingest-wire", ps, "payloads"));
    std::snprintf(line, sizeof(line),
                  "ingest-wire: a round is %zu payloads (%zu traces, %zu "
                  "defective, %zu spans); protocol mix otel:zipkin:jaeger "
                  "2:1:1",
                  payloads.size(), traces.size(), defects, total_spans);
    result->notes.push_back(line);
    result->detail["ingest_spans_per_s"] = {rate, "spans/s"};
    result->detail["query_p50_ms"] = {median(query_ms), "ms"};
    result->perLayer["core.train_ms"] = {median(train_ms), "ms"};
    result->perLayer["storage.query_p50_ms"] = {median(query_ms), "ms"};
    if (!opt.trace)
        return;

    // --- Per-layer metrics (traced phase), per round. ---
    double rounds = static_cast<double>(std::max<size_t>(1, traced_rounds));
    double otel = decode_ms[collector::Protocol::Otel];
    double zipkin = decode_ms[collector::Protocol::Zipkin];
    double jaeger = decode_ms[collector::Protocol::Jaeger];
    result->perLayer["util.json_parse_ms"] = {parse_ms / rounds, "ms"};
    result->perLayer["collector.decode_ms.otel"] = {otel / rounds, "ms"};
    result->perLayer["collector.decode_ms.zipkin"] = {zipkin / rounds, "ms"};
    result->perLayer["collector.decode_ms.jaeger"] = {jaeger / rounds, "ms"};
    double qsum = 0.0;
    for (double v : traced_query_ms)
        qsum += v;
    result->perLayer["storage.query_ms"] = {
        traced_query_ms.empty()
            ? 0.0
            : qsum / static_cast<double>(traced_query_ms.size()),
        "ms"};
    result->perLayer["bench.trace_overhead_pct"] = {
        100.0 * ((traced_wall / rounds) /
                     (untraced_wall /
                      static_cast<double>(std::max<size_t>(1, untraced_rounds))) -
                 1.0),
        "%"};
    std::vector<Span> spans = tracer.spans();
    if (opt.brk == Break::LoseSpan)
        loseLargestTopSpan(&spans);
    std::map<std::string, double> raw = ledgerMs(spans);
    result->perLayer["bench.replay_ms"] = {raw["bench.replay"] / rounds,
                                           "ms"};
    Attribution ingest{"collector.ingest",
                       {{"util.json_parse_ms", parse_ms},
                        {"collector.decode_ms.otel", otel},
                        {"collector.decode_ms.zipkin", zipkin},
                        {"collector.decode_ms.jaeger", jaeger}},
                       "collector.ingest_other_ms"};
    std::map<std::string, double> rows =
        reconcile(spans, requests, traced_wall, {ingest}, result);
    result->perLayer["collector.ingest_other_ms"] = {
        rows["collector.ingest_other_ms"] / rounds, "ms"};
    if (!opt.outDir.empty())
        tracer.write(opt.outDir + "/spans-ingest-wire-s" +
                     std::to_string(opt.seed) + ".jsonl");
}

} // namespace perfbench

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace perfbench {

bool
breakFromString(const std::string &name, Break *out)
{
    static const std::map<std::string, Break> names = {
        {"none", Break::None},
        {"corrupt-verdict", Break::CorruptVerdict},
        {"miscount-distance", Break::MiscountDistance},
        {"fingerprint-drift", Break::FingerprintDrift},
        {"drop-span", Break::DropSpan},
        {"recovery-drift", Break::RecoveryDrift},
        {"incident-mismatch", Break::IncidentMismatch},
        {"skip-defect", Break::SkipDefect},
        {"query-mismatch", Break::QueryMismatch},
        {"lose-span", Break::LoseSpan},
    };
    auto it = names.find(name);
    if (it == names.end())
        return false;
    *out = it->second;
    return true;
}

// ---------------------------------------------------------------------
// Span recorder.
// ---------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
Tracer::record(const std::string &name, int64_t startNs, int64_t endNs,
               int parent, const std::string &request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, startNs, endNs, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

int
Tracer::open(const std::string &name, int parent,
             const std::string &request)
{
    if (!enabled_)
        return -1;
    int64_t now = nowNs();
    return record(name, now, now, parent, request);
}

void
Tracer::close(int index)
{
    if (!enabled_ || index < 0)
        return;
    int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].endNs = now;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Span>(spans_.begin(), spans_.end());
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Length of the union of [a, b) intervals clipped to [lo, hi). */
int64_t
coveredNs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
          int64_t hi)
{
    std::sort(iv.begin(), iv.end());
    int64_t total = 0;
    int64_t cur = lo;
    for (auto [a, b] : iv) {
        a = std::max(a, cur);
        b = std::min(b, hi);
        if (b > a) {
            total += b - a;
            cur = b;
        }
    }
    return total;
}

std::vector<std::vector<int>>
childrenOf(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[static_cast<size_t>(spans[i].parent)].push_back(
                static_cast<int>(i));
    return kids;
}

} // namespace

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (const Span &s : spans()) {
        out << "{\"name\":\"" << jsonEscape(s.name) << "\",\"start_ns\":"
            << s.startNs << ",\"end_ns\":" << s.endNs
            << ",\"parent\":" << s.parent << ",\"request\":\""
            << jsonEscape(s.request) << "\"}\n";
    }
    return static_cast<bool>(out);
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> kids = childrenOf(spans);
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (int k : kids[i])
            iv.emplace_back(spans[static_cast<size_t>(k)].startNs,
                            spans[static_cast<size_t>(k)].endNs);
        int64_t dur = spans[i].endNs - spans[i].startNs;
        int64_t cov = coveredNs(iv, spans[i].startNs, spans[i].endNs);
        self[i] = static_cast<double>(dur - cov) / 1e6;
    }
    return self;
}

std::map<std::string, double>
ledgerMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<int>> kids = childrenOf(spans);
    std::vector<double> self = selfTimesMs(spans);
    // Wall share of each span: 1 for a top-level span; children of a
    // parent share the parent's covered time in proportion to their
    // durations (exactly 1 each when they do not overlap).
    std::vector<double> share(spans.size(), 1.0);
    std::map<std::string, double> rows;
    for (size_t i = 0; i < spans.size(); ++i) {
        // Parents are recorded before their children (open() order),
        // so a forward pass sees every parent's share first.
        const std::vector<int> &k = kids[i];
        if (!k.empty()) {
            double dur_sum = 0.0;
            std::vector<std::pair<int64_t, int64_t>> iv;
            for (int c : k) {
                const Span &s = spans[static_cast<size_t>(c)];
                dur_sum += static_cast<double>(s.endNs - s.startNs);
                iv.emplace_back(s.startNs, s.endNs);
            }
            double cov = static_cast<double>(
                coveredNs(iv, spans[i].startNs, spans[i].endNs));
            double scale = dur_sum > 0.0 ? cov / dur_sum : 1.0;
            for (int c : k)
                share[static_cast<size_t>(c)] = share[i] * scale;
        }
        rows[spans[i].name] += share[i] * self[i];
    }
    return rows;
}

std::map<std::string, double>
reconcile(const std::vector<Span> &spans,
          const std::vector<RequestWall> &requests, double wallMs,
          const std::vector<Attribution> &attributions,
          RunResult *result)
{
    char line[200];
    // (1) Every request carries its layer span, and its top-level spans
    // cover the wall time the benchmark measured for it.
    std::map<std::string, std::vector<const Span *>> tops;
    for (const Span &s : spans)
        if (s.parent < 0)
            tops[s.request].push_back(&s);
    size_t bad = 0;
    std::string first_bad;
    for (const RequestWall &r : requests) {
        std::vector<std::pair<int64_t, int64_t>> iv;
        bool has_layer = false;
        auto it = tops.find(r.request);
        if (it != tops.end()) {
            for (const Span *s : it->second) {
                iv.emplace_back(s->startNs, s->endNs);
                has_layer = has_layer || s->name.rfind(r.layer, 0) == 0;
            }
        }
        double covered =
            static_cast<double>(coveredNs(iv, INT64_MIN, INT64_MAX)) / 1e6;
        double miss = std::fabs(covered - r.ms);
        if (!has_layer ||
            miss > std::max(kReconcileSlack * r.ms, kUncoveredFloorMs)) {
            if (bad++ == 0)
                first_bad = r.request + (has_layer ? " (off by " +
                                                         std::to_string(miss) +
                                                         " ms)"
                                                   : std::string(" (no ") +
                                                         r.layer + " span)");
        }
    }
    result->check(bad == 0,
                  "reconcile: " + std::to_string(bad) + " of " +
                      std::to_string(requests.size()) +
                      " requests are not covered by their spans, first " +
                      first_bad);

    // (2) Layer rows, split by attribution, sum back to the wall time.
    std::map<std::string, double> rows = ledgerMs(spans);
    for (const Attribution &a : attributions) {
        auto it = rows.find(a.host);
        double host = it == rows.end() ? 0.0 : it->second;
        if (it != rows.end())
            rows.erase(it);
        double parts = 0.0;
        for (const auto &[name, ms] : a.parts) {
            rows[name] += ms;
            parts += ms;
        }
        double rest = host - parts;
        rows[a.remainder] += rest;
        result->check(rest >= -kReconcileSlack * host,
                      "reconcile: " + a.host + " is " +
                          std::to_string(host) + " ms but its parts sum "
                          "to " + std::to_string(parts) + " ms");
    }
    double sum = 0.0;
    for (const auto &[name, ms] : rows)
        sum += ms;
    double gap = wallMs > 0.0 ? (sum - wallMs) / wallMs : 0.0;
    result->perLayer["bench.reconcile_gap_pct"] = {100.0 * gap, "%"};
    std::snprintf(line, sizeof(line),
                  "reconcile: %zu requests; layer rows sum to %.3f ms of "
                  "%.3f ms wall (gap %+.3f%%, slack %.1f%%)",
                  requests.size(), sum, wallMs, 100.0 * gap,
                  100.0 * kReconcileSlack);
    result->notes.push_back(line);
    for (const auto &[name, ms] : rows) {
        std::snprintf(line, sizeof(line), "  ledger %-32s %12.3f ms",
                      name.c_str(), ms);
        result->notes.push_back(line);
    }
    result->check(std::fabs(gap) <= kReconcileSlack,
                  "reconcile: layer self times miss the end-to-end wall "
                  "time by " + std::to_string(100.0 * gap) + "%");
    return rows;
}

void
loseLargestTopSpan(std::vector<Span> *spans)
{
    int victim = -1;
    int64_t longest = -1;
    for (size_t i = 0; i < spans->size(); ++i) {
        const Span &s = (*spans)[i];
        if (s.parent < 0 && s.name.rfind("bench.", 0) != 0 &&
            s.endNs - s.startNs > longest) {
            longest = s.endNs - s.startNs;
            victim = static_cast<int>(i);
        }
    }
    if (victim < 0)
        return;
    for (Span &s : *spans) {
        if (s.parent == victim)
            s.parent = -1;
        else if (s.parent > victim)
            --s.parent;
    }
    spans->erase(spans->begin() + victim);
}

// ---------------------------------------------------------------------
// Statistics and process probes.
// ---------------------------------------------------------------------

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

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 0.5);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

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

PassStats
passStats(const std::vector<Pass> &passes)
{
    PassStats s;
    s.passes = passes.size();
    if (passes.empty())
        return s;
    std::vector<double> rates, p50s, rss;
    for (const Pass &p : passes) {
        rates.push_back(p.rate);
        p50s.push_back(median(p.latencies));
        rss.push_back(p.rssMb);
    }
    s.rate = median(rates);
    s.p50 = median(p50s);
    s.rssMb = median(rss);

    // Every pass of a workload makes the same number of requests.
    double per_pass =
        static_cast<double>(std::max<size_t>(1, passes[0].latencies.size()));
    double need = 10.0 / (1.0 - kTailP);
    s.blockPasses = static_cast<size_t>(std::ceil(need / per_pass - 1e-9));
    s.blocks = std::max<size_t>(1, passes.size() / s.blockPasses);
    std::vector<double> tails;
    s.beyond = SIZE_MAX;
    for (size_t b = 0; b < s.blocks; ++b) {
        size_t end = b + 1 == s.blocks ? passes.size()
                                       : (b + 1) * s.blockPasses;
        std::vector<double> block;
        for (size_t i = b * s.blockPasses; i < end; ++i)
            block.insert(block.end(), passes[i].latencies.begin(),
                         passes[i].latencies.end());
        s.beyond = std::min(
            s.beyond, static_cast<size_t>(static_cast<double>(block.size()) *
                                          (1.0 - kTailP) + 1e-9));
        tails.push_back(percentile(std::move(block), kTailP));
    }
    s.tail = median(tails);
    return s;
}

std::string
describe(const std::string &workload, const PassStats &s,
         const char *request)
{
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s: %zu passes; rate, p50 and rss are medians over "
                  "passes; request_tail_ms is the median p%g of %zu blocks "
                  "of %zu+ passes, at least %zu %s beyond it per block%s",
                  workload.c_str(), s.passes, 100.0 * kTailP, s.blocks,
                  std::min(s.blockPasses, s.passes), s.beyond, request,
                  s.beyond < 10 ? " (run too short for a steady tail)" : "");
    return line;
}

std::map<std::string, double>
parseObsText(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            continue;
        out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1,
                                              nullptr);
    }
    return out;
}

double
obsValue(const std::map<std::string, double> &obs, const std::string &key)
{
    auto it = obs.find(key);
    return it == obs.end() ? 0.0 : it->second;
}

StageSums
readStages()
{
    std::map<std::string, double> obs =
        parseObsText(sleuth::obs::renderText());
    auto sum = [&](const char *stage) {
        return obsValue(obs, std::string("sleuth_pipeline_stage_ms_sum"
                                         "{stage=\"") +
                                 stage + "\"}");
    };
    return {sum("encode"), sum("distance"), sum("cluster"), sum("rca")};
}

StageSums
operator-(const StageSums &a, const StageSums &b)
{
    return {a.encode - b.encode, a.distance - b.distance,
            a.cluster - b.cluster, a.rca - b.rca};
}

uint64_t
fnv1a(const std::string &s, uint64_t h)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> cat = {
        // core / nn / distance / cluster (storm, stream-storm)
        {"core.train_ms", "ms"},
        {"core.encode_ms", "ms"},
        {"core.rca_ms", "ms"},
        {"distance.matrix_ms", "ms"},
        {"cluster.hdbscan_ms", "ms"},
        {"core.analyze_other_ms", "ms"},
        {"core.rca_per_trace", "ratio"},
        {"core.rca_iterations", "count"},
        {"core.rca_us_per_iteration", "us"},
        {"distance.evals", "count"},
        {"cluster.clusters", "count"},
        {"core.cache_hit.encoding", "ratio"},
        {"core.cache_hit.distance", "ratio"},
        {"core.cache_hit.verdict", "ratio"},
        {"core.analyze_p50_ms", "ms"},
        {"core.analyze_tail_ms", "ms"},
        {"core.rca_f1", "ratio"},
        {"core.rca_acc", "ratio"},
        // online, storage, durable (stream-storm)
        {"online.ingest_ns_per_span", "ns"},
        {"online.deliver_ms", "ms"},
        {"online.poll_quiet_ms", "ms"},
        {"online.poll_incident_ms", "ms"},
        {"online.incident_poll_ms", "ms"},
        {"online.assemble_ms", "ms"},
        {"storage.insert_ms", "ms"},
        {"online.detect_ms", "ms"},
        {"online.poll_other_ms", "ms"},
        {"online.backlog_spans_max", "count"},
        {"online.watermark_lag_ms", "ms"},
        {"online.lost.ring_full", "count"},
        {"online.lost.shed", "count"},
        {"online.lost.late", "count"},
        {"online.lost.orphan", "count"},
        {"online.detect_latency_p50_ms", "ms"},
        {"online.detect_quiet_gap_ms", "ms"},
        {"online.detect_bucket_wait_ms", "ms"},
        {"online.detect_poll_wait_ms", "ms"},
        {"storage.snapshot_ms", "ms"},
        {"storage.bytes_per_span", "bytes"},
        {"storage.evicted_spans", "count"},
        {"durable.wal_append_ms", "ms"},
        {"durable.wal_fsync_ms", "ms"},
        {"durable.wal_bytes_per_span", "bytes"},
        {"durable.snapshot_ms", "ms"},
        {"durable.recover_ms", "ms"},
        {"durable.recover_frames", "count"},
        {"durable.recover_ms_per_mspan", "ms"},
        // util / collector / storage (ingest-wire)
        {"util.json_parse_ms", "ms"},
        {"collector.decode_ms.otel", "ms"},
        {"collector.decode_ms.zipkin", "ms"},
        {"collector.decode_ms.jaeger", "ms"},
        {"collector.ingest_other_ms", "ms"},
        {"storage.query_ms", "ms"},
        {"storage.query_p50_ms", "ms"},
        // the benchmark itself
        {"bench.replay_ms", "ms"},
        {"bench.reconcile_gap_pct", "%"},
        {"bench.trace_overhead_pct", "%"},
    };
    return cat;
}

} // namespace perfbench

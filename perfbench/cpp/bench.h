#pragma once

// Shared pieces of the repository benchmark: run options, the result
// record every workload fills, the span recorder with its self-time
// reducer, and small statistics helpers.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * A check deliberately broken by the benchmark's own tests (--break).
 * Each one perturbs what the benchmark observes, never the program,
 * so the matching correctness check must reject the run.
 */
enum class Break {
    None,
    /** storm: blank one verdict after analyze returns. */
    CorruptVerdict,
    /** storm: report one distance evaluation too many. */
    MiscountDistance,
    /** storm: flip one bit of the printed verdict fingerprint. */
    FingerprintDrift,
    /** stream-storm: count one span as sent that was never delivered. */
    DropSpan,
    /** stream-storm: flip the recovered fingerprint. */
    RecoveryDrift,
    /** stream-storm: corrupt the batch re-analysis ranking. */
    IncidentMismatch,
    /** ingest-wire: expect one injected defect that was never sent. */
    SkipDefect,
    /** ingest-wire: drop one trace from the brute-force reference. */
    QueryMismatch,
    /** traced run: lose one request span before reconciliation. */
    LoseSpan,
};

/** Parse a --break name; false when unknown. */
bool breakFromString(const std::string &name, Break *out);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory for the result file and span dump ("" = none). */
    std::string outDir;
    /** Host fingerprint fields known only to the launcher. */
    std::string commit = "unknown";
    Break brk = Break::None;
    /** Expected verdict fingerprint (storm; 0 = not checked). */
    uint64_t expectFingerprint = 0;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct RunResult
{
    /** End-to-end metrics (reported with --trace 0). */
    std::map<std::string, Metric> endToEnd;
    /** Per-layer metrics (reported with --trace 1). */
    std::map<std::string, Metric> perLayer;
    /** Workload-specific figures, printed for people, not gated. */
    std::map<std::string, Metric> detail;
    /** Units of work attempted / failed (the result line's counts). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Failed correctness checks, one line each. */
    std::vector<std::string> failures;
    /** Informational lines for stdout (fingerprints, tail rules). */
    std::vector<std::string> notes;

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

/** One recorded span. */
struct Span
{
    std::string name;
    /** Nanoseconds since the recorder's epoch. */
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Index of the parent span, -1 for a request's top span. */
    int parent = -1;
    /** Workload plus the snapshot, poll or payload number. */
    std::string request;
};

/**
 * In-memory span recorder. Disabled recorders cost one branch per
 * call. Spans may be recorded from several threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    int64_t nowNs() const;

    /** Record a finished span; returns its index (-1 when disabled). */
    int record(const std::string &name, int64_t startNs, int64_t endNs,
               int parent, const std::string &request);

    /** Open a span ending at close(); returns its index. */
    int open(const std::string &name, int parent,
             const std::string &request);
    void close(int index);

    std::vector<Span> spans() const;

    /** Write spans as JSON lines. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    /** A deque: recording never moves earlier spans. */
    std::deque<Span> spans_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval its children cover. Returned in span-index order.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/**
 * Layer ledger: self time summed per span name, where children that
 * overlap each other (concurrent producers) are scaled to the share of
 * their parent's wall time they cover together, so the rows sum to
 * the total wall time of the top-level spans.
 */
std::map<std::string, double> ledgerMs(const std::vector<Span> &spans);

/**
 * Part of a ledger row explained by a finer source (an obs family or a
 * standalone replay) that has no spans of its own.
 */
struct Attribution
{
    std::string host;
    std::vector<std::pair<std::string, double>> parts;
    /** Row that receives host minus parts. */
    std::string remainder;
};

/** Declared slack of the reconciliation check (share of wall time). */
constexpr double kReconcileSlack = 0.03;

/** Measured wall time of one request (snapshot, poll, payload). */
struct RequestWall
{
    std::string request;
    double ms = 0.0;
    /** Name prefix of the layer span the request must carry. */
    const char *layer = "";
};

/**
 * Time a request may leave uncovered by its spans beyond the slack:
 * the benchmark thread can be descheduled between two spans.
 */
constexpr double kUncoveredFloorMs = 20.0;

/**
 * The reconciliation check. Ledger rows are split by the attributions;
 * then (1) every request must carry a top-level span of its layer, and
 * its top-level spans must cover the wall time the benchmark measured for
 * it within kReconcileSlack (or kUncoveredFloorMs), and (2) the ledger
 * rows must sum back to the enclosing end-to-end wall time within
 * kReconcileSlack. A remainder row that goes negative beyond the slack
 * also fails. Records the gap as bench.reconcile_gap_pct and returns
 * the split rows.
 */
std::map<std::string, double> reconcile(const std::vector<Span> &spans,
               const std::vector<RequestWall> &requests, double wallMs,
               const std::vector<Attribution> &attributions,
               RunResult *result);

/** Remove the longest top-level layer span, replays aside (the
    --break lose-span test). */
void loseLargestTopSpan(std::vector<Span> *spans);

/** Median of a sample (0 when empty). */
double median(std::vector<double> xs);

/** Linear-interpolated percentile, p in [0, 1]. */
double percentile(std::vector<double> xs, double p);

/** Peak resident set (VmHWM) of this process in MiB. */
double peakRssMb();

/** Current resident set (VmRSS) of this process in MiB. */
double residentMb();

/** One pass of a workload's timed loop (over its whole input). */
struct Pass
{
    /** Work items per second over the pass. */
    double rate = 0.0;
    /** Wall time of each request of the pass, in ms. */
    std::vector<double> latencies;
    /** Resident set after the pass, in MiB. */
    double rssMb = 0.0;
};

/** End-to-end statistics over all passes of a run. */
struct PassStats
{
    double rate = 0.0;
    double p50 = 0.0;
    double tail = 0.0;
    double rssMb = 0.0;
    size_t passes = 0;
    /** Blocks the tail is taken over, and passes per block. */
    size_t blocks = 0;
    size_t blockPasses = 0;
    /** Requests beyond the tail percentile in the smallest block. */
    size_t beyond = 0;
};

/**
 * Percentile of request_tail_ms on every workload. At p99 the
 * ingest-wire tail (3 ms payloads) followed the host's sub-millisecond
 * hiccups: ten runs read 5.1 to 10.4 ms while their p50 stayed within
 * 3.4 %.
 */
constexpr double kTailP = 0.9;

/**
 * Robust end-to-end statistics. The rate, p50 and resident set are
 * medians over all passes of each pass's own figure. The tail is the
 * median over blocks of consecutive passes of each block's kTailP
 * percentile, where a block is the fewest passes that hold at least
 * ten requests beyond kTailP; passes left over join the last block. A
 * run too short for one such block has one block of all its passes,
 * and PassStats::beyond says how few requests lie beyond. Medians let
 * a slow stretch of a shared host pass by without discarding the
 * program's own costs: a cost that recurs in most passes or blocks
 * moves every figure.
 */
PassStats passStats(const std::vector<Pass> &passes);

/** One line describing a PassStats for stdout. */
std::string describe(const std::string &workload, const PassStats &s,
                     const char *request);

/** Parse an obs text exposition into "family{labels}" -> value. */
std::map<std::string, double> parseObsText(const std::string &text);

/** Current value of an obs series ("family{labels}" key), 0 if absent. */
double obsValue(const std::map<std::string, double> &obs,
                const std::string &key);

/** Cumulative sleuth_pipeline_stage_ms sums, one per stage. */
struct StageSums
{
    double encode = 0.0, distance = 0.0, cluster = 0.0, rca = 0.0;
};

/** Read the stage sums from obs::renderText(). */
StageSums readStages();

/** Stage sums accumulated between two readings. */
StageSums operator-(const StageSums &a, const StageSums &b);

/** 64-bit FNV-1a over a string, chained from h. */
uint64_t fnv1a(const std::string &s, uint64_t h = 1469598103934665603ull);

/** Workload entry points. */
void runStorm(const Options &opt, RunResult *result);
void runStream(const Options &opt, RunResult *result);
void runIngestWire(const Options &opt, RunResult *result);

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &perLayerCatalog();

} // namespace perfbench

#include "detector.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "obs/metrics.h"
#include "util/logging.h"

namespace sleuth::online {

StormDetector::StormDetector(DetectorConfig config) : config_(config)
{
    SLEUTH_ASSERT(config_.bucketUs > 0, "bucketUs must be positive");
    SLEUTH_ASSERT(config_.windowBuckets > 0,
                  "windowBuckets must be positive");
    SLEUTH_ASSERT(config_.clearFraction <= config_.onsetFraction,
                  "clear threshold above onset breaks hysteresis");
}

int64_t
StormDetector::bucketOf(int64_t startUs) const
{
    // Keep INT64_MIN free for the empty-slot sentinel (only startUs =
    // INT64_MIN itself could floor-divide to it).
    SLEUTH_ASSERT(startUs != std::numeric_limits<int64_t>::min(),
                  "event time out of range");
    // Floor division (event times may be negative in tests).
    int64_t q = startUs / config_.bucketUs;
    if (startUs % config_.bucketUs < 0)
        --q;
    return q;
}

void
StormDetector::observe(const Observation &obs)
{
    Endpoint &ep = endpoints_[obs.endpoint];
    if (ep.ring.empty()) {
        ep.ring.resize(config_.windowBuckets);
        for (Bucket &b : ep.ring)
            b.latency = QuantileSketch(config_.sketchAccuracy);
    }
    int64_t idx = bucketOf(obs.startUs);
    Bucket &b = ep.ring[static_cast<size_t>(
        ((idx % static_cast<int64_t>(ep.ring.size())) +
         static_cast<int64_t>(ep.ring.size())) %
        static_cast<int64_t>(ep.ring.size()))];
    if (b.index != kEmptyBucket && b.index > idx)
        return;  // a full ring length older than data already seen:
                 // outside any window the advancing watermark can read
    if (b.index != idx) {
        // The slot belongs to an older bucket: repurpose it.
        b.index = idx;
        b.count = 0;
        b.anomalous = 0;
        b.errors = 0;
        b.latency.clear();
    }
    ++b.count;
    if (obs.anomalous)
        ++b.anomalous;
    if (obs.error)
        ++b.errors;
    b.latency.add(static_cast<double>(obs.durationUs));
    static obs::Counter &observations = obs::counter(
        "sleuth_detector_observations_total",
        "Completed traces folded into storm-detector windows");
    observations.add();
}

WindowStats
StormDetector::windowStats(const std::string &endpoint,
                           int64_t watermarkUs) const
{
    WindowStats w;
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end())
        return w;
    int64_t hi = bucketOf(watermarkUs);
    int64_t lo = hi - static_cast<int64_t>(config_.windowBuckets) + 1;
    QuantileSketch merged(config_.sketchAccuracy);
    for (const Bucket &b : it->second.ring) {
        if (b.index == kEmptyBucket || b.index < lo || b.index > hi)
            continue;
        w.count += b.count;
        w.anomalous += b.anomalous;
        w.errors += b.errors;
        merged.merge(b.latency);
    }
    w.p50Us = merged.quantile(0.50);
    w.p99Us = merged.quantile(0.99);
    return w;
}

QuantileSketch
StormDetector::windowSketch(const std::string &endpoint,
                            int64_t watermarkUs) const
{
    QuantileSketch merged(config_.sketchAccuracy);
    auto it = endpoints_.find(endpoint);
    if (it == endpoints_.end())
        return merged;
    int64_t hi = bucketOf(watermarkUs);
    int64_t lo = hi - static_cast<int64_t>(config_.windowBuckets) + 1;
    for (const Bucket &b : it->second.ring)
        if (b.index != kEmptyBucket && b.index >= lo && b.index <= hi)
            merged.merge(b.latency);
    return merged;
}

std::vector<StormTransition>
StormDetector::advance(int64_t watermarkUs)
{
    std::vector<StormTransition> out;
    for (auto &[name, ep] : endpoints_) {
        WindowStats w = windowStats(name, watermarkUs);
        double fraction =
            w.count == 0 ? 0.0
                         : static_cast<double>(w.anomalous) /
                               static_cast<double>(w.count);
        if (!ep.storming) {
            if (w.count >= config_.minWindowCount &&
                w.anomalous >= config_.minAnomalous &&
                fraction >= config_.onsetFraction) {
                ep.storming = true;
                out.push_back({StormTransition::Kind::Onset, name,
                               watermarkUs, w});
            }
        } else {
            if (w.count == 0 || fraction < config_.clearFraction) {
                ep.storming = false;
                out.push_back({StormTransition::Kind::Clear, name,
                               watermarkUs, w});
            }
        }
    }
    // The emitted order is part of the determinism contract consumers
    // rely on (service.cc opens incidents from the first onset), so
    // sort canonically by (kind, endpoint) here rather than leaning on
    // the container's iteration order: onsets before clears, endpoints
    // lexicographic within each kind.
    std::sort(out.begin(), out.end(),
              [](const StormTransition &a, const StormTransition &b) {
                  return std::tie(a.kind, a.endpoint) <
                         std::tie(b.kind, b.endpoint);
              });
    static obs::Counter &onsets = obs::counter(
        "sleuth_detector_transitions_total",
        "Storm lifecycle transitions emitted by the detector",
        {{"kind", "onset"}});
    static obs::Counter &clears = obs::counter(
        "sleuth_detector_transitions_total",
        "Storm lifecycle transitions emitted by the detector",
        {{"kind", "clear"}});
    for (const StormTransition &t : out)
        (t.kind == StormTransition::Kind::Onset ? onsets : clears)
            .add();
    return out;
}

bool
StormDetector::storming(const std::string &endpoint) const
{
    auto it = endpoints_.find(endpoint);
    return it != endpoints_.end() && it->second.storming;
}

std::vector<std::string>
StormDetector::stormingEndpoints() const
{
    std::vector<std::string> out;
    for (const auto &[name, ep] : endpoints_)
        if (ep.storming)
            out.push_back(name);
    return out;
}

void
StormDetector::encodeState(util::BinaryWriter &w) const
{
    w.u32(static_cast<uint32_t>(endpoints_.size()));
    for (const auto &[name, ep] : endpoints_) {
        w.str(name);
        w.u8(ep.storming ? 1 : 0);
        w.u32(static_cast<uint32_t>(ep.ring.size()));
        for (const Bucket &b : ep.ring) {
            w.i64(b.index);
            w.u64(b.count);
            w.u64(b.anomalous);
            w.u64(b.errors);
            b.latency.encode(w);
        }
    }
}

bool
StormDetector::decodeState(util::BinaryReader &r)
{
    // Smallest encodings (see encodeState): an endpoint with a blank
    // name and no slots, and a bucket whose sketch holds no buckets.
    constexpr size_t kMinEndpointBytes = 4 + 1 + 4;
    constexpr size_t kMinBucketBytes = 4 * 8 + 4 * 8 + 4;
    endpoints_.clear();
    uint32_t n = r.count(kMinEndpointBytes);
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
        std::string name = r.str();
        Endpoint ep;
        ep.storming = r.u8() != 0;
        ep.ring.resize(r.count(kMinBucketBytes));
        for (Bucket &b : ep.ring) {
            b.index = r.i64();
            b.count = r.u64();
            b.anomalous = r.u64();
            b.errors = r.u64();
            if (!b.latency.decode(r))
                return false;
        }
        endpoints_.emplace(std::move(name), std::move(ep));
    }
    return r.ok();
}

} // namespace sleuth::online

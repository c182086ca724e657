#include "trace_store.h"

#include <algorithm>
#include <set>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/strings.h"

namespace sleuth::storage {

TraceStore::TraceStore()
    : interner_(std::make_shared<trace::StringInterner>())
{
}

TraceStore::TraceStore(RetentionConfig retention)
    : interner_(std::make_shared<trace::StringInterner>()),
      retention_(retention)
{
}

void
TraceStore::setRetention(RetentionConfig retention)
{
    retention_ = retention;
    // Apply immediately but never evict the newest record: a budget
    // smaller than one trace otherwise empties the store.
    if (!records_.empty())
        enforceRetention(records_.rbegin()->first);
}

size_t
TraceStore::insert(trace::Trace t, int64_t sloUs, int flowIndex)
{
    Record record;
    record.columns = trace::ColumnarTrace(t, interner_);
    record.sloUs = sloUs;
    record.flowIndex = flowIndex;
    size_t id = next_id_++;
    record.id = id;
    static obs::Counter &inserted = obs::counter(
        "sleuth_store_inserted_records_total",
        "Trace records inserted into trace stores");
    inserted.add();
    admitRecord(std::move(record));
    enforceRetention(id);
    return id;
}

void
TraceStore::restoreRecord(trace::ColumnarTrace columns, int64_t sloUs,
                          int flowIndex, size_t id)
{
    SLEUTH_ASSERT(columns.internerPtr() == interner_,
                  "restored columns bound to a foreign interner");
    SLEUTH_ASSERT(records_.count(id) == 0,
                  "restoring an id that is already live");
    Record record;
    record.columns = std::move(columns);
    record.sloUs = sloUs;
    record.flowIndex = flowIndex;
    record.id = id;
    static obs::Counter &restored = obs::counter(
        "sleuth_store_restored_records_total",
        "Trace records re-admitted during durable-log replay");
    restored.add();
    admitRecord(std::move(record));
    if (id >= next_id_)
        next_id_ = id + 1;
}

void
TraceStore::admitRecord(Record record)
{
    size_t id = record.id;
    record.traceIdHash = util::fnv1a(record.traceId());
    by_start_.emplace(record.startUs(), id);
    std::set<uint32_t> services;
    const trace::SpanColumns &cols = record.columns.columns();
    for (size_t i = 0; i < cols.size(); ++i)
        services.insert(cols.serviceId(i));
    for (uint32_t svc : services)
        by_service_[svc].push_back(id);
    total_spans_ += record.spanCount();
    records_.emplace(id, std::move(record));
}

void
TraceStore::evictById(size_t id)
{
    SLEUTH_ASSERT(records_.count(id) > 0,
                  "evictById on an id that is not live");
    evictOne(id);
}

std::vector<size_t>
TraceStore::takeRecentEvictions()
{
    std::vector<size_t> out;
    out.swap(recent_evictions_);
    return out;
}

void
TraceStore::enforceRetention(size_t protected_id)
{
    auto over = [&] {
        if (retention_.maxSpans > 0 &&
            total_spans_ > retention_.maxSpans)
            return true;
        if (retention_.maxRecords > 0 &&
            records_.size() > retention_.maxRecords)
            return true;
        return false;
    };
    // Oldest-first by (startUs, id): the multimap keeps equal start
    // times in insertion order, so the scan is deterministic.
    while (over() && records_.size() > 1) {
        auto it = by_start_.begin();
        if (it->second == protected_id) {
            auto next = std::next(it);
            if (next == by_start_.end())
                break;
            it = next;
        }
        evictOne(it->second);
    }
}

void
TraceStore::evictOne(size_t id)
{
    auto rec_it = records_.find(id);
    SLEUTH_ASSERT(rec_it != records_.end(), "evicting unknown record");
    const Record &rec = rec_it->second;

    int64_t start = rec.startUs();
    auto [lo, hi] = by_start_.equal_range(start);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == id) {
            by_start_.erase(it);
            break;
        }
    }
    std::set<uint32_t> services;
    const trace::SpanColumns &cols = rec.columns.columns();
    for (size_t i = 0; i < cols.size(); ++i)
        services.insert(cols.serviceId(i));
    for (uint32_t svc : services) {
        auto svc_it = by_service_.find(svc);
        if (svc_it == by_service_.end())
            continue;
        std::vector<size_t> &ids = svc_it->second;
        ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
        if (ids.empty())
            by_service_.erase(svc_it);
    }
    total_spans_ -= rec.spanCount();
    ++evictions_.records;
    evictions_.spans += rec.spanCount();
    static obs::Counter &records = obs::counter(
        "sleuth_store_evicted_records_total",
        "Trace records evicted by retention enforcement");
    static obs::Counter &spans = obs::counter(
        "sleuth_store_evicted_spans_total",
        "Spans evicted by retention enforcement");
    records.add();
    spans.add(rec.spanCount());
    if (track_evictions_)
        recent_evictions_.push_back(id);
    records_.erase(rec_it);
}

const Record &
TraceStore::at(size_t id) const
{
    auto it = records_.find(id);
    SLEUTH_ASSERT(it != records_.end(),
                  "record id out of range or evicted");
    return it->second;
}

std::vector<const Record *>
TraceStore::query(const Query &q) const
{
    // Choose the narrower index: service postings when a service is
    // given, otherwise the time index. An un-interned service name
    // cannot match any stored span.
    std::vector<const Record *> out;
    std::optional<uint32_t> service_id;
    if (q.service) {
        service_id = interner_->find(*q.service);
        if (!service_id)
            return out;
    }
    auto matches = [&](const Record &r) {
        if (q.minStartUs && r.startUs() < *q.minStartUs)
            return false;
        if (q.maxStartUs && r.startUs() >= *q.maxStartUs)
            return false;
        if (q.flowIndex && r.flowIndex != *q.flowIndex)
            return false;
        if (q.onlyAnomalous && !r.anomalous())
            return false;
        if (service_id && !r.columns.touchesService(*service_id))
            return false;
        return true;
    };

    if (service_id) {
        auto it = by_service_.find(*service_id);
        if (it == by_service_.end())
            return out;
        std::vector<size_t> ids = it->second;
        std::sort(ids.begin(), ids.end(), [&](size_t a, size_t b) {
            int64_t sa = records_.at(a).startUs();
            int64_t sb = records_.at(b).startUs();
            if (sa != sb)
                return sa < sb;
            return a < b;
        });
        for (size_t id : ids) {
            const Record &r = records_.at(id);
            if (matches(r)) {
                out.push_back(&r);
                if (q.limit && out.size() >= q.limit)
                    break;
            }
        }
        return out;
    }

    auto lo = q.minStartUs ? by_start_.lower_bound(*q.minStartUs)
                           : by_start_.begin();
    auto hi = q.maxStartUs ? by_start_.lower_bound(*q.maxStartUs)
                           : by_start_.end();
    for (auto it = lo; it != hi; ++it) {
        const Record &r = records_.at(it->second);
        if (matches(r)) {
            out.push_back(&r);
            if (q.limit && out.size() >= q.limit)
                break;
        }
    }
    return out;
}

Dataset<const Record *>
TraceStore::scan() const
{
    std::vector<const Record *> all;
    all.reserve(records_.size());
    for (const auto &[id, r] : records_) {
        (void)id;
        all.push_back(&r);
    }
    return Dataset<const Record *>(std::move(all));
}

size_t
TraceStore::memoryBytes() const
{
    // Estimate: per-record columnar payload plus red-black tree node
    // overhead for the three indexes (~3 pointers + color per node).
    constexpr size_t kMapNodeOverhead = 4 * sizeof(void *);
    size_t bytes = sizeof(*this) + interner_->memoryBytes();
    for (const auto &[id, r] : records_) {
        (void)id;
        bytes += kMapNodeOverhead + sizeof(size_t) + sizeof(Record) -
                 sizeof(trace::ColumnarTrace) + r.columns.memoryBytes();
    }
    bytes += by_start_.size() *
             (kMapNodeOverhead + sizeof(int64_t) + sizeof(size_t));
    for (const auto &[svc, ids] : by_service_) {
        (void)svc;
        bytes += kMapNodeOverhead + sizeof(uint32_t) +
                 sizeof(std::vector<size_t>) +
                 ids.capacity() * sizeof(size_t);
    }
    return bytes;
}

void
TraceStore::encodeState(util::BinaryWriter &w) const
{
    w.u64(next_id_);
    w.u64(evictions_.records);
    w.u64(evictions_.spans);

    // Full vocabulary in id order: re-interning it in order on an
    // empty interner reproduces every id, keeping the raw u32 column
    // encodings below valid.
    std::vector<std::string> names = interner_->namesFrom(0);
    w.u32(static_cast<uint32_t>(names.size()));
    for (const std::string &s : names)
        w.str(s);

    w.u32(static_cast<uint32_t>(records_.size()));
    for (const auto &[id, rec] : records_) {
        w.u64(id);
        w.i64(rec.sloUs);
        w.i64(rec.flowIndex);
        rec.columns.encode(w);
    }
}

bool
TraceStore::decodeState(util::BinaryReader &r)
{
    SLEUTH_ASSERT(records_.empty() && interner_->size() == 0,
                  "decodeState requires an empty store");
    uint64_t nextId = r.u64();
    EvictionStats evictions;
    evictions.records = r.u64();
    evictions.spans = r.u64();

    // Smallest encodings (see encodeState): a blank name, and a record
    // of an empty trace (id, slo, flow, trace id, root, span count,
    // arena).
    constexpr size_t kMinNameBytes = 4;
    constexpr size_t kMinRecordBytes = 3 * 8 + 4 + 8 + 4 + 4;
    uint32_t nNames = r.count(kMinNameBytes);
    for (uint32_t i = 0; i < nNames && r.ok(); ++i) {
        std::string s = r.str();
        uint32_t id = interner_->intern(s);
        if (id != i)
            return false;
    }
    if (!r.ok())
        return false;

    uint32_t nRecords = r.count(kMinRecordBytes);
    for (uint32_t i = 0; i < nRecords && r.ok(); ++i) {
        size_t id = r.u64();
        int64_t sloUs = r.i64();
        int flowIndex = static_cast<int>(r.i64());
        trace::ColumnarTrace columns;
        if (!columns.decode(r, interner_))
            return false;
        if (records_.count(id) > 0)
            return false;
        restoreRecord(std::move(columns), sloUs, flowIndex, id);
    }
    if (!r.ok())
        return false;
    next_id_ = nextId;
    evictions_ = evictions;
    return true;
}

uint64_t
TraceStore::contentFingerprint() const
{
    util::BinaryWriter w;
    encodeState(w);
    return util::fnv1a(w.buffer());
}

} // namespace sleuth::storage

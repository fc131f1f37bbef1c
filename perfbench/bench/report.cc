#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

using nvalloc::TimeKind;

void
Samples::append(const Samples &o)
{
    for (size_t i = 0; i < kBuckets; ++i)
        counts_[i] += o.counts_[i];
    n_ += o.n_;
}

uint64_t
Samples::lowerEdge(size_t b)
{
    if (b < (size_t(2) << kSubBits))
        return b;
    unsigned e = unsigned(b >> kSubBits) - 1;
    return uint64_t(b - (size_t(e) << kSubBits)) << e;
}

double
Samples::pct(double q) const
{
    if (n_ == 0)
        return 0;
    uint64_t rank = uint64_t(q * double(n_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen > rank)
            return double(lowerEdge(i));
    }
    return double(lowerEdge(kBuckets - 1));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

CpuRotor::CpuRotor(uint64_t period_ns) : period_(period_ns)
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
}

CpuRotor::~CpuRotor()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_)
        CPU_SET(c, &set);
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(set), &set);
}

void
CpuRotor::rotate(uint64_t now)
{
    next_ = now + period_;
    if (cpus_.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[at_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

const char *
spanName(SpanName n)
{
    switch (n) {
    case SpanName::Op: return "op";
    case SpanName::KvGet: return "KvStore::get";
    case SpanName::KvPut: return "KvStore::put";
    case SpanName::KvOpen: return "KvStore::open";
    case SpanName::KvVerify: return "KvStore::verify";
    case SpanName::NvMallocTo: return "NvAlloc::mallocTo";
    case SpanName::NvFreeFrom: return "NvAlloc::freeFrom";
    case SpanName::NvOpen: return "NvAlloc::open";
    case SpanName::NvDirtyRestart: return "NvAlloc::dirtyRestart";
    case SpanName::NvCtlRead: return "NvAlloc::ctlRead";
    case SpanName::VcNow: return "VClock::now";
    case SpanName::VcSnapshot: return "VClock::snapshot";
    case SpanName::Count: break;
    }
    return "?";
}

const char *
spanLayer(SpanName n, bool control)
{
    switch (n) {
    case SpanName::Op: return "bench";
    case SpanName::KvOpen: return control ? "recovery" : "kv";
    case SpanName::KvGet:
    case SpanName::KvPut:
    case SpanName::KvVerify: return "kv";
    case SpanName::NvOpen: return control ? "recovery" : "nvalloc";
    case SpanName::NvMallocTo:
    case SpanName::NvFreeFrom:
    case SpanName::NvDirtyRestart:
    case SpanName::NvCtlRead: return "nvalloc";
    case SpanName::VcNow:
    case SpanName::VcSnapshot: return "pm";
    case SpanName::Count: break;
    }
    return "?";
}

std::vector<Span>
Tracer::spans() const
{
    if (ring_.size() < cap_)
        return ring_;
    std::vector<Span> out(ring_.begin() + long(head_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + long(head_));
    return out;
}

const std::vector<std::string> &
ctlNames()
{
    static const std::vector<std::string> names = {
        "stats.flush.total",
        "stats.flush.reflush",
        "stats.flush.sequential",
        "stats.flush.random",
        "stats.flush.xpline_hit",
        "stats.flush.fences",
        "stats.wal.commits",
        "stats.tx.begins",
        "stats.tx.commits",
        "stats.tx.aborts",
        "stats.tx.ops_alloc",
        "stats.tx.ops_free",
        "stats.tx.ops_write",
        "stats.alloc.small",
        "stats.alloc.large",
        "stats.free.small",
        "stats.free.large",
        "stats.tcache.hit",
        "stats.tcache.miss",
        "stats.fastpath.reserve_hits",
        "stats.fastpath.reserve_misses",
        "stats.fastpath.cas_retries",
        "stats.fastpath.region_steals",
        "stats.fastpath.refill_searches",
        "stats.fastpath.locked_fallbacks",
        "stats.log.appends",
        "stats.log.entries_copied",
        "stats.log.live_entries",
        "stats.log.active_chunks",
        "stats.log.gc_ns",
        "stats.degraded.failed_allocs",
        "stats.degraded.reclaim_attempts",
        "stats.hardening.quarantine_pushes",
        "stats.hardening.quarantine_depth",
        "stats.kv.gets",
        "stats.kv.hits",
        "stats.kv.misses",
        "stats.kv.inserts",
        "stats.kv.updates",
        "stats.kv.records",
        "stats.kv.key_bytes",
        "stats.kv.value_bytes",
        "stats.kv.buckets",
        "stats.heap.committed_bytes",
        "stats.heap.peak_committed_bytes",
    };
    return names;
}

CtlSnap
snapCtl(nvalloc::NvAlloc &heap, Tracer *tr, uint64_t op)
{
    CtlSnap s;
    uint64_t t_op = wallNs();
    for (const std::string &n : ctlNames()) {
        uint64_t v = 0;
        uint64_t a = wallNs();
        if (heap.ctlRead(n.c_str(), &v) != nvalloc::NvStatus::Ok)
            v = 0;
        if (tr)
            tr->push(SpanName::NvCtlRead, a, wallNs(), op, true);
        s[n] = v;
    }
    if (tr)
        tr->push(SpanName::Op, t_op, wallNs(), op, true);
    return s;
}

// ---- report ---------------------------------------------------------

namespace {

void
printLine(const char *kind, const Metric &m)
{
    std::printf("%-6s %-40s %16.6g %-6s %s\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
}

std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

void
Report::e2e(const std::string &name, double v, const std::string &unit,
            const std::string &note)
{
    e2e_.push_back({name, v, unit, note});
    printLine("e2e", e2e_.back());
}

void
Report::layer(const std::string &name, double v, const std::string &unit,
              const std::string &note)
{
    layer_.push_back({name, v, unit, note});
    printLine("layer", layer_.back());
}

void
Report::ratio(const std::string &name, double num, double base,
              const std::string &base_what, const std::string &unit)
{
    char note[96];
    std::snprintf(note, sizeof(note), "of %.0f %s", base, base_what.c_str());
    layer(name, base > 0 ? num / base : 0, unit, note);
}

void
Report::info(const std::string &line)
{
    std::printf("info   %s\n", line.c_str());
}

int
Report::finish(bool trace, bool correct, uint64_t attempted, uint64_t failed)
{
    const std::vector<Metric> &ms = trace ? layer_ : e2e_;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < ms.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + ms[i].name + "\": {\"value\": " + jsonNum(ms[i].value) +
               ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return correct && failed == 0 ? 0 : 1;
}

void
reportCounters(Report &r, const CtlSnap &b, const CtlSnap &a, uint64_t ops)
{
    auto d = [&](const char *n) {
        double x = double(a.at(n)) - double(b.at(n));
        return x > 0 ? x : 0.0;
    };
    auto g = [&](const char *n) { return double(a.at(n)); };
    for (const std::string &n : ctlNames())
        r.info("ctl " + n + " " + std::to_string(b.at(n)) + " -> " +
               std::to_string(a.at(n)));
    double o = double(ops);
    double commits = d("stats.tx.commits");
    double flushes = d("stats.flush.total");

    r.layer("tx.commits", commits, "count");
    r.layer("tx.aborts", d("stats.tx.aborts"), "count");
    r.ratio("tx.ops_per_commit",
            d("stats.tx.ops_alloc") + d("stats.tx.ops_free") +
                d("stats.tx.ops_write"),
            commits, "commits");
    r.ratio("tx.flushes_per_commit", flushes, commits, "commits");
    r.ratio("tx.fences_per_commit", d("stats.flush.fences"), commits,
            "commits");

    r.ratio("nvalloc.tcache.hit_ratio", d("stats.tcache.hit"),
            d("stats.alloc.small"), "small allocs");
    r.ratio("nvalloc.fastpath.reserve_hit_ratio",
            d("stats.fastpath.reserve_hits"),
            d("stats.fastpath.reserve_hits") +
                d("stats.fastpath.reserve_misses"),
            "reservations");
    r.ratio("nvalloc.fastpath.cas_retries_per_op",
            d("stats.fastpath.cas_retries"), o, "ops");
    r.layer("nvalloc.fastpath.region_steals",
            d("stats.fastpath.region_steals"), "count");
    r.layer("nvalloc.fastpath.refill_searches",
            d("stats.fastpath.refill_searches"), "count");
    r.layer("nvalloc.fastpath.locked_fallbacks",
            d("stats.fastpath.locked_fallbacks"), "count");
    r.ratio("nvalloc.wal.commits_per_op", d("stats.wal.commits"), o, "ops");
    r.layer("nvalloc.failed_allocs", d("stats.degraded.failed_allocs"),
            "count");
    r.layer("nvalloc.reclaim_attempts",
            d("stats.degraded.reclaim_attempts"), "count");
    r.layer("log.entries_copied", d("stats.log.entries_copied"), "count");
    r.layer("log.live_entries", g("stats.log.live_entries"), "count",
            "gauge at end");
    r.layer("log.active_chunks", g("stats.log.active_chunks"), "count",
            "gauge at end");
    r.layer("log.gc_vns", d("stats.log.gc_ns"), "ns");
    r.layer("hardening.quarantine_pushes",
            d("stats.hardening.quarantine_pushes"), "count");
    r.layer("hardening.quarantine_depth",
            g("stats.hardening.quarantine_depth"), "count", "gauge at end");

    r.ratio("pm.flushes_per_op", flushes, o, "ops");
    r.ratio("pm.fences_per_op", d("stats.flush.fences"), o, "ops");
    for (const char *c : {"reflush", "sequential", "random", "xpline_hit"}) {
        std::string n = std::string("stats.flush.") + c;
        r.ratio(std::string("pm.") + c + "_ratio", d(n.c_str()), flushes,
                "flushes");
    }
    r.layer("pm.committed_bytes", g("stats.heap.committed_bytes"), "B",
            "gauge at end");
    r.layer("pm.peak_committed_bytes", g("stats.heap.peak_committed_bytes"),
            "B", "gauge at end");

    r.ratio("kv.get.hit_ratio", d("stats.kv.hits"), d("stats.kv.gets"),
            "gets");
}

void
reportNa(Report &r,
         const std::vector<std::pair<std::string, std::string>> &name_unit)
{
    for (const auto &[n, u] : name_unit)
        r.layer(n, 0, u, "n/a on this workload");
}

void
reportKinds(Report &r, const Kinds &k, uint64_t ops)
{
    static const char *const names[kNumTimeKinds] = {
        "flush_meta", "flush_wal", "flush_log", "flush_data", "fence",
        "search",     "pm_read",   "lock_wait", "other"};
    for (unsigned i = 0; i < kNumTimeKinds; ++i)
        r.layer(std::string("pm.vns_per_op.") + names[i],
                ops ? double(k[i]) / double(ops) : 0, "ns",
                "of " + std::to_string(ops) + " ops");
}

void
reportSpans(Report &r, const std::vector<const Tracer *> &tracers,
            const Args &a, uint64_t ops)
{
    // Self time: an op's own duration minus its children's; a call
    // span has no recorded children, so its self time is its length.
    std::map<std::string, double> self;
    uint64_t complete_ops = 0, recorded = 0;
    std::map<std::string, uint64_t> per_name;
    std::vector<std::vector<Span>> all;
    for (const Tracer *t : tracers) {
        all.push_back(t->spans());
        recorded += t->total();
    }
    for (const std::vector<Span> &sp : all) {
        // Ring order keeps an op's children just before its Op span;
        // the first op id may have lost children to the ring wrap.
        uint64_t first_op = sp.empty() ? 0 : sp.front().op;
        double children = 0;
        std::map<std::string, double> pending;
        for (const Span &s : sp) {
            ++per_name[spanName(s.name)];
            if (s.op == first_op || s.control)
                continue;
            if (s.name != SpanName::Op) {
                children += s.dur;
                pending[spanLayer(s.name, false)] += s.dur;
                continue;
            }
            self["bench"] += double(s.dur) - children;
            for (auto &[l, v] : pending)
                self[l] += v;
            pending.clear();
            children = 0;
            ++complete_ops;
        }
    }
    for (const char *l : {"bench", "kv", "nvalloc", "pm"})
        r.layer(std::string("trace.self_ns_per_op.") + l,
                complete_ops ? self[l] / double(complete_ops) : 0, "ns",
                "of " + std::to_string(complete_ops) + " traced ops kept");
    r.layer("trace.spans", double(recorded), "count",
            std::to_string(ops) + " traced ops");
    for (auto &[n, c] : per_name)
        r.info("spans kept " + n + " " + std::to_string(c));

    if (a.trace_dir.empty())
        return;
    std::string path = a.trace_dir + "/" + a.workload + ".spans.jsonl";
    std::ofstream f(path);
    if (!f) {
        r.info("cannot write " + path);
        return;
    }
    // The newest spans of each thread, enough to inspect a few
    // thousand ops without writing the whole ring.
    constexpr size_t kDump = 20000;
    for (size_t t = 0; t < all.size(); ++t) {
        const std::vector<Span> &sp = all[t];
        for (size_t i = sp.size() > kDump ? sp.size() - kDump : 0;
             i < sp.size(); ++i) {
            const Span &s = sp[i];
            f << "{\"thread\":" << t << ",\"name\":\"" << spanName(s.name)
              << "\",\"layer\":\"" << spanLayer(s.name, s.control)
              << "\",\"start\":" << s.start << ",\"end\":" << s.start + s.dur
              << ",\"op\":" << s.op << ",\"parent\":"
              << (s.name == SpanName::Op ? "null" : std::to_string(s.op))
              << "}\n";
        }
    }
    r.info("spans written to " + path);
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench

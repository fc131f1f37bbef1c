/**
 * @file
 * alloc-churn: Larson-style slot churn straight on NvAlloc::mallocTo /
 * NvAlloc::freeFrom, no KV or tx above them.
 *
 * kArrays slot arrays of kSlots persistent words live in one heap
 * block anchored at rootWord(0). kThreads threads each take a free
 * array, run kRound replace steps on it (freeFrom the slot's block,
 * mallocTo a new one into the same word) and hand it back, so later
 * frees hit blocks another thread allocated (Larson's hand-over).
 * Every block carries a stamp at its first word; a free checks it, so
 * two live blocks that overlap show up as failed ops.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "nvalloc/auditor.h"

namespace perfbench {

using namespace nvalloc;

namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kArrays = 2 * kThreads;
constexpr unsigned kSlots = 8192;
constexpr unsigned kRound = 256;
constexpr unsigned kLargeOneIn = 256;
constexpr uint32_t kLargeMin = 32768;
/** Replace steps generated per thread per second of run, up to
 *  kMaxStream; a thread that runs past its stream starts it again. */
constexpr uint64_t kStepsPerThreadS = 300'000;
constexpr uint64_t kMaxStream = uint64_t{1} << 21;
/** Set-ups and restarts per run: both are short, so take many. */
constexpr int kReps = 9;
/** Replace steps of the one-thread latency probe, and how long it
 *  stays on one CPU (see CpuRotor). */
constexpr uint64_t kProbeSteps = 3'000'000;
constexpr uint64_t kProbeRotateNs = 50'000'000;

struct Step
{
    uint32_t slot;
    uint32_t size;
};

/** Skewed small (log-uniform 8..1000 B); one in kLargeOneIn is
 *  log-uniform 32..256 KB. */
uint32_t
drawSize(Rng &rng)
{
    bool large = rng.nextBounded(kLargeOneIn) == 0;
    double lo = large ? kLargeMin : 8, hi = large ? 262144 : 1000;
    return uint32_t(std::exp(std::log(lo) + rng.nextDouble() *
                                                (std::log(hi) - std::log(lo))));
}

std::vector<std::vector<Step>>
makeStreams(const Args &a, uint64_t *hash)
{
    uint64_t n = a.ops ? a.ops
                       : std::min(kMaxStream,
                                  uint64_t(double(kStepsPerThreadS) *
                                           (a.seconds > 1 ? a.seconds : 1)));
    std::vector<std::vector<Step>> out(kThreads);
    uint64_t h = mix(kHashSeed, a.seed);
    for (unsigned t = 0; t < kThreads; ++t) {
        Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 0x100 + t);
        out[t].reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
            Step s{uint32_t(rng.nextBounded(kSlots)), drawSize(rng)};
            out[t].push_back(s);
            h = mix(h, (uint64_t(s.slot) << 32) | s.size);
        }
    }
    *hash = h;
    return out;
}

uint64_t
stamp(unsigned arr, unsigned slot, uint32_t gen)
{
    return (uint64_t(arr) << 56) | (uint64_t(slot) << 32) | gen | 1;
}

/** One heap with its slot table and the DRAM mirror of each slot. */
struct Churn
{
    std::unique_ptr<PmDevice> dev;
    std::unique_ptr<NvAlloc> heap;
    uint64_t *table = nullptr; //!< kArrays * kSlots persistent words
    std::vector<uint32_t> gen, size;
    std::atomic<bool> busy[kArrays] = {};

    uint64_t *word(unsigned arr, unsigned slot) { return table + arr * kSlots + slot; }
};

struct ThreadOut
{
    uint64_t calls = 0, steps = 0, failed = 0;
    /** Wall samples of the untraced ops; large_wall is the traced
     *  half's (per-layer). Virtual samples: the first kVirtualSamples
     *  calls of each kind, untraced or not. */
    Samples malloc_wall, free_wall, malloc_v, free_v, large_wall, large_v;
    Kinds kinds{};
    size_t pos = 0;
    unsigned cursor = 0;
};

/** One replace step on (arr, slot): free the old block, allocate the
 *  new one into the same word, stamp it. */
template <bool T>
void
replace(Churn &c, ThreadCtx &ctx, unsigned arr, const Step &st, Probe<T> &p,
        ThreadOut &out)
{
    uint64_t *w = c.word(arr, st.slot);
    size_t i = size_t(arr) * kSlots + st.slot;
    uint64_t ns;
    Kinds k0{}, k1{};
    if (*w) {
        if (*static_cast<uint64_t *>(c.heap->at(*w)) != stamp(arr, st.slot, c.gen[i]))
            ++out.failed;
        p.snap(k0);
        uint64_t v0 = p.vnow();
        NvStatus s = p.call(SpanName::NvFreeFrom, &ns,
                            [&] { return c.heap->freeFrom(ctx, w); });
        uint64_t v1 = p.vnow();
        p.snap(k1);
        if constexpr (!T)
            out.free_wall.add(ns);
        if (out.free_v.size() < kVirtualSamples)
            out.free_v.add(v1 - v0);
        ++out.calls;
        if (s != NvStatus::Ok)
            ++out.failed;
        if constexpr (T)
            for (unsigned k = 0; k < kNumTimeKinds; ++k)
                out.kinds[k] += k1[k] - k0[k];
    }
    p.snap(k0);
    uint64_t v0 = p.vnow();
    void *blk = p.call(SpanName::NvMallocTo, &ns,
                       [&] { return c.heap->mallocTo(ctx, st.size, w); });
    uint64_t v1 = p.vnow();
    p.snap(k1);
    if constexpr (!T)
        out.malloc_wall.add(ns);
    if (out.malloc_v.size() < kVirtualSamples)
        out.malloc_v.add(v1 - v0);
    if (st.size >= kLargeMin) {
        if constexpr (T)
            out.large_wall.add(ns);
        if (out.malloc_v.size() < kVirtualSamples)
            out.large_v.add(v1 - v0);
    }
    ++out.calls;
    if constexpr (T)
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            out.kinds[k] += k1[k] - k0[k];
    if (!blk) {
        ++out.failed;
        c.size[i] = 0;
        return;
    }
    *static_cast<uint64_t *>(blk) = stamp(arr, st.slot, ++c.gen[i]);
    c.size[i] = st.size;
}

/** Take a free slot array, starting after the last one this thread
 *  held; kArrays = 2 * kThreads, so one is always free. */
unsigned
takeArray(Churn &c, unsigned &cursor)
{
    for (;;) {
        cursor = (cursor + 1) % kArrays;
        bool f = false;
        if (c.busy[cursor].compare_exchange_strong(f, true))
            return cursor;
    }
}

template <bool T>
void
churnLoop(Churn &c, ThreadCtx &ctx, const std::vector<Step> &steps,
          uint64_t tid, uint64_t deadline, uint64_t max_steps, Tracer *tr,
          ThreadOut &out, CpuRotor *rotor = nullptr)
{
    Probe<T> p{tr, 0};
    uint64_t done = 0;
    for (;;) {
        uint64_t now = wallNs();
        if (max_steps ? done >= max_steps : now >= deadline)
            break;
        if (rotor)
            rotor->tick(now);
        unsigned arr = takeArray(c, out.cursor);
        for (unsigned k = 0; k < kRound && (!max_steps || done < max_steps);
             ++k, ++done) {
            p.op = (tid << 48) | out.steps;
            uint64_t t0 = T ? wallNs() : 0;
            replace<T>(c, ctx, arr, steps[out.pos++ % steps.size()], p, out);
            p.endOp(t0);
            ++out.steps;
        }
        c.busy[arr].store(false, std::memory_order_release);
    }
}

/** Device, heap, zeroed slot table, every slot filled. */
bool
setupChurn(uint64_t seed, Churn &c, uint64_t *vend)
{
    PmDeviceConfig dc;
    dc.size = size_t{4} << 30;
    c.dev = std::make_unique<PmDevice>(dc);
    OpenResult o = NvAlloc::open(*c.dev);
    if (!o)
        return false;
    c.heap = std::move(o.heap);
    ThreadCtx *ctx = c.heap->attachThread();
    if (!ctx)
        return false;
    size_t bytes = size_t(kArrays) * kSlots * 8;
    void *t = c.heap->mallocTo(*ctx, bytes, c.heap->rootWord(0));
    c.heap->detachThread(ctx);
    if (!t)
        return false;
    std::memset(t, 0, bytes);
    c.dev->persistFence(t, bytes, TimeKind::FlushData);
    c.table = static_cast<uint64_t *>(t);
    c.gen.assign(size_t(kArrays) * kSlots, 0);
    c.size.assign(size_t(kArrays) * kSlots, 0);

    std::atomic<uint64_t> bad{0};
    std::vector<uint64_t> vends(kThreads);
    std::vector<std::thread> ts;
    for (unsigned th = 0; th < kThreads; ++th) {
        ts.emplace_back([&, th] {
            ThreadCtx *x = c.heap->attachThread();
            if (!x) {
                bad.fetch_add(1);
                return;
            }
            VClock::reset();
            Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x200 + th);
            Probe<false> p;
            ThreadOut scratch;
            for (unsigned arr = th; arr < kArrays; arr += kThreads)
                for (unsigned s = 0; s < kSlots; ++s)
                    replace<false>(c, *x, arr, {s, drawSize(rng)}, p, scratch);
            bad.fetch_add(scratch.failed);
            c.heap->detachThread(x);
            vends[th] = VClock::now();
        });
    }
    for (auto &th : ts)
        th.join();
    *vend = *std::max_element(vends.begin(), vends.end());
    return bad.load() == 0;
}

struct Phase
{
    uint64_t calls = 0;
    double wall_s = 0;
    uint64_t vmakespan = 0;
};

void
runThreads(const Args &a, Churn &c, const std::vector<std::vector<Step>> &streams,
           uint64_t vbase, std::vector<ThreadOut> &outs,
           std::vector<Tracer> &tracers, Phase &plain, Phase &traced)
{
    std::vector<std::thread> ts;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<uint64_t> calls1(kThreads), t_end1(kThreads), t_end2(kThreads),
        v_end(kThreads);
    uint64_t deadline1 = 0, deadline2 = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            ThreadCtx *ctx = c.heap->attachThread();
            VClock::reset();
            VClock::setNow(vbase);
            outs[t].cursor = t * 2;
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            if (!ctx) {
                ++outs[t].failed;
                return;
            }
            churnLoop<false>(c, *ctx, streams[t], t, deadline1, a.ops,
                             nullptr, outs[t]);
            calls1[t] = outs[t].calls;
            t_end1[t] = wallNs();
            if (a.trace) {
                churnLoop<true>(c, *ctx, streams[t], t, deadline2, 0,
                                &tracers[t], outs[t]);
                t_end2[t] = wallNs();
            }
            v_end[t] = VClock::now() - vbase;
            c.heap->detachThread(ctx);
        });
    }
    while (ready.load() < kThreads)
        std::this_thread::yield();
    uint64_t t_start = wallNs();
    uint64_t span = uint64_t(a.seconds * 1e9);
    deadline1 = t_start + (a.trace ? span / 2 : span);
    deadline2 = t_start + span;
    go.store(true, std::memory_order_release);
    for (auto &t : ts)
        t.join();
    uint64_t end1 = 0, end2 = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        plain.calls += calls1[t];
        traced.calls += outs[t].calls - calls1[t];
        end1 = std::max(end1, t_end1[t]);
        end2 = std::max(end2, t_end2[t]);
        plain.vmakespan = std::max(plain.vmakespan, v_end[t]);
    }
    plain.wall_s = double(end1 - t_start) * 1e-9;
    if (a.trace)
        traced.wall_s = double(end2 - end1) * 1e-9;
}

uint64_t
countAllocated(NvAlloc &heap)
{
    uint64_t n = 0;
    heap.forEachAllocated([&](uint64_t, size_t, bool) { ++n; });
    return n;
}

uint64_t
sumClassLive(NvAlloc &heap)
{
    uint64_t sum = 0;
    for (const std::string &n : heap.ctl().names("stats.class")) {
        if (n.size() < 5 || n.compare(n.size() - 5, 5, ".live") != 0)
            continue;
        uint64_t v = 0;
        heap.ctlRead(n.c_str(), &v);
        sum += v;
    }
    return sum;
}

/**
 * After the restarts: every occupied slot's block is allocated and
 * still stamped; free them all and the table; then a clean audit,
 * no allocated block left and zero live blocks in every size class.
 */
uint64_t
gateChurn(Churn &c, uint64_t occupied, Report &r)
{
    uint64_t bad = 0;
    NvAlloc &h = *c.heap;
    c.table = static_cast<uint64_t *>(h.at(*h.rootWord(0)));
    uint64_t live = countAllocated(h);
    if (live != occupied + 1) {
        r.info("gate: " + std::to_string(live) + " blocks allocated after "
               "recovery, expected " + std::to_string(occupied + 1));
        ++bad;
    }
    ThreadCtx *ctx = h.attachThread();
    if (!ctx)
        return bad + 1;
    for (unsigned arr = 0; arr < kArrays; ++arr)
        for (unsigned s = 0; s < kSlots; ++s) {
            uint64_t *w = c.word(arr, s);
            if (!*w)
                continue;
            size_t i = size_t(arr) * kSlots + s;
            if (*static_cast<uint64_t *>(h.at(*w)) != stamp(arr, s, c.gen[i]))
                ++bad;
            if (h.freeFrom(*ctx, w) != NvStatus::Ok)
                ++bad;
        }
    if (h.freeFrom(*ctx, h.rootWord(0)) != NvStatus::Ok)
        ++bad;
    h.detachThread(ctx);
    AuditReport rep = HeapAuditor(h).audit();
    if (!rep.clean()) {
        r.info("gate: audit not clean:\n" + rep.summary());
        ++bad;
    }
    if (uint64_t n = countAllocated(h)) {
        r.info("gate: " + std::to_string(n) + " blocks still allocated");
        ++bad;
    }
    if (uint64_t n = sumClassLive(h)) {
        r.info("gate: stats.class.*.live sums to " + std::to_string(n));
        ++bad;
    }
    r.info("gate: " + std::to_string(occupied) +
           " blocks checked and freed, audit " +
           (rep.clean() ? "clean" : "NOT clean"));
    return bad;
}

} // namespace

int
runAllocChurn(const Args &a)
{
    Report r;
    uint64_t hash = 0;
    auto streams = makeStreams(a, &hash);
    char hbuf[40];
    std::snprintf(hbuf, sizeof(hbuf), "%016llx", (unsigned long long)hash);
    r.info("workload alloc-churn seed " + std::to_string(a.seed) +
           " input hash " + hbuf);

    Tracer ctl_tr(size_t{1} << 12);
    std::unique_ptr<Churn> c;
    std::vector<double> setups;
    uint64_t vbase = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        c.reset();
        double t0 = wallS();
        c = std::make_unique<Churn>();
        if (!setupChurn(a.seed, *c, &vbase)) {
            r.info("setup failed");
            return r.finish(a.trace, false, 1, 1);
        }
        setups.push_back(wallS() - t0);
    }

    // Per-call wall latency comes from one thread churning alone (and
    // rotating over the CPUs), on the filled heap before the timed
    // phase: with every CPU of a 4-CPU host busy, the 4 threads' tails
    // measure the scheduler.
    ThreadOut probe;
    if (ThreadCtx *ctx = c->heap->attachThread()) {
        CpuRotor rotor(kProbeRotateNs);
        churnLoop<false>(*c, *ctx, streams[0], 0, 0, kProbeSteps, nullptr,
                         probe, &rotor);
        c->heap->detachThread(ctx);
    } else {
        ++probe.failed;
    }

    CtlSnap before = snapCtl(*c->heap, &ctl_tr, uint64_t(0xfffe) << 48);
    std::vector<ThreadOut> outs(kThreads);
    std::vector<Tracer> tracers;
    if (a.trace)
        tracers.resize(kThreads);
    Phase plain, traced;
    runThreads(a, *c, streams, vbase, outs, tracers, plain, traced);
    CtlSnap after = snapCtl(*c->heap, &ctl_tr, (uint64_t(0xfffe) << 48) + 1);

    ThreadOut all;
    for (ThreadOut &o : outs) {
        all.calls += o.calls;
        all.steps += o.steps;
        all.failed += o.failed;
        all.malloc_wall.append(o.malloc_wall);
        all.free_wall.append(o.free_wall);
        all.malloc_v.append(o.malloc_v);
        all.free_v.append(o.free_v);
        all.large_wall.append(o.large_wall);
        all.large_v.append(o.large_v);
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            all.kinds[k] += o.kinds[k];
    }
    uint64_t occupied = 0, small_occupied = 0;
    double live_bytes = 0;
    for (size_t i = 0; i < c->size.size(); ++i)
        if (c->table[i]) {
            ++occupied;
            live_bytes += c->size[i];
            small_occupied += c->size[i] < kLargeMin;
        }
    // Small-class gauges before the restart: one live block per slot
    // that holds a small block (the table itself is an extent).
    uint64_t class_live = sumClassLive(*c->heap);
    uint64_t pre_bad = 0;
    if (class_live != small_occupied) {
        r.info("gate: stats.class.*.live = " + std::to_string(class_live) +
               " before restart, expected " + std::to_string(small_occupied));
        ++pre_bad;
    }
    double committed = double(after.at("stats.heap.committed_bytes"));

    std::vector<double> rs, rvms, heap_vns;
    RecoveryInfo rec;
    CpuRotor rotor(0); // each restart on the next CPU
    for (int rep = 0; rep < kReps; ++rep) {
        rotor.tick(wallNs());
        uint64_t op = (uint64_t(0xffff) << 48) | unsigned(rep);
        uint64_t d0 = wallNs();
        c->heap->dirtyRestart();
        ctl_tr.push(SpanName::NvDirtyRestart, d0, wallNs(), op, true);
        c->heap.reset();
        uint64_t t0 = wallNs(), v0 = VClock::now();
        OpenResult o = NvAlloc::open(*c->dev);
        uint64_t t1 = wallNs(), v1 = VClock::now();
        ctl_tr.push(SpanName::NvOpen, t0, t1, op, true);
        ctl_tr.push(SpanName::Op, t0, t1, op, true);
        if (!o) {
            r.info("reopen failed");
            return r.finish(a.trace, false, all.calls + probe.calls + 1,
                            all.failed + probe.failed + 1);
        }
        c->heap = std::move(o.heap);
        if (rep == 0)
            rec = c->heap->lastRecovery();
        rs.push_back(double(t1 - t0) * 1e-9);
        rvms.push_back(double(v1 - v0) * 1e-6);
        heap_vns.push_back(double(v1 - v0));
    }
    uint64_t gate_bad = pre_bad + gateChurn(*c, occupied, r);
    uint64_t failed = all.failed + probe.failed + gate_bad;
    uint64_t attempted = all.calls + probe.calls;

    uint64_t us = 1000;
    r.info("phase: " + std::to_string(plain.calls) + " untraced calls in " +
           std::to_string(plain.wall_s) + " s; " + std::to_string(all.steps) +
           " replace steps in total");
    r.e2e("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " set-ups");
    r.e2e("ops_per_s", double(plain.calls) / plain.wall_s, "1/s",
          std::to_string(plain.calls) + " mallocTo+freeFrom calls in " +
              std::to_string(plain.wall_s) + " s, " +
              std::to_string(kThreads) + " threads");
    r.e2e("vops_per_s",
          plain.vmakespan
              ? double(all.calls) / (double(plain.vmakespan) * 1e-9)
              : 0,
          "1/vs", "calls / virtual makespan");
    std::string fn = "n=" + std::to_string(probe.free_wall.size()) +
                     " freeFrom, one-thread probe";
    std::string mn = "n=" + std::to_string(probe.malloc_wall.size()) +
                     " mallocTo, one-thread probe";
    r.e2e("get_p50_us", probe.free_wall.pct(0.50) / us, "us", fn);
    r.e2e("get_p99_us", probe.free_wall.pct(0.99) / us, "us", fn);
    r.e2e("put_p50_us", probe.malloc_wall.pct(0.50) / us, "us", mn);
    r.e2e("put_p99_us", probe.malloc_wall.pct(0.99) / us, "us", mn);
    mn = "n=" + std::to_string(all.malloc_v.size()) + " mallocTo";
    r.e2e("put_vus_p50", all.malloc_v.pct(0.50) / us, "vus", mn);
    r.e2e("put_vus_p99", all.malloc_v.pct(0.99) / us, "vus", mn);
    r.e2e("recover_s", median(rs), "s",
          "median of " + std::to_string(rs.size()) + " restarts");
    r.e2e("recover_vms", median(rvms), "vms",
          "median of " + std::to_string(rvms.size()) + " restarts");
    r.e2e("space_amp", live_bytes > 0 ? committed / live_bytes : 0, "ratio",
          "of " + std::to_string(uint64_t(live_bytes)) + " live requested bytes");
    r.e2e("rss_mb", peakRssMb(), "MB");

    reportCounters(r, before, after, all.calls);
    r.ratio("fail_ratio", double(failed), double(attempted), "calls attempted");
    r.layer("recovery.heap_open.wall_ms", median(rs) * 1e3, "ms");
    r.layer("recovery.heap_open.vns", median(heap_vns), "ns");
    r.layer("recovery.slabs_rebuilt", double(rec.slabs_rebuilt), "count");
    r.layer("recovery.extents_rebuilt", double(rec.extents_rebuilt), "count");
    r.layer("recovery.wal_completions", double(rec.wal_completions), "count");
    reportNa(r, {{"kv.chain.max", "count"},
                 {"kv.load_factor", "ratio"},
                 {"recovery.kv_open.wall_ms", "ms"},
                 {"kv.rebuilt_records", "count"},
                 {"kv.get.wall_ns.p50", "ns"},
                 {"kv.get.wall_ns.p99", "ns"},
                 {"kv.get.wall_ns.p999", "ns"},
                 {"kv.put.wall_ns.p50", "ns"},
                 {"kv.put.wall_ns.p99", "ns"},
                 {"kv.put.wall_ns.p999", "ns"},
                 {"kv.lock_wait_vns_per_op", "ns"},
                 {"tx.wal_vns_per_put", "ns"}});

    if (a.trace) {
        Samples mw, fw;
        std::vector<const Tracer *> tps;
        for (Tracer &t : tracers) {
            tps.push_back(&t);
            for (const Span &sp : t.spans())
                if (sp.name == SpanName::NvMallocTo)
                    mw.add(sp.dur);
                else if (sp.name == SpanName::NvFreeFrom)
                    fw.add(sp.dur);
        }
        tps.push_back(&ctl_tr);
        std::string mn2 = "n=" + std::to_string(mw.size()) + " traced";
        std::string fn2 = "n=" + std::to_string(fw.size()) + " traced";
        r.layer("nvalloc.malloc.wall_ns.p50", mw.pct(0.50), "ns", mn2);
        r.layer("nvalloc.malloc.wall_ns.p99", mw.pct(0.99), "ns", mn2);
        r.layer("nvalloc.free.wall_ns.p50", fw.pct(0.50), "ns", fn2);
        r.layer("nvalloc.free.wall_ns.p99", fw.pct(0.99), "ns", fn2);
        std::string mv = "n=" + std::to_string(all.malloc_v.size());
        std::string fv = "n=" + std::to_string(all.free_v.size());
        r.layer("nvalloc.malloc.vns.p50", all.malloc_v.pct(0.50), "ns", mv);
        r.layer("nvalloc.malloc.vns.p99", all.malloc_v.pct(0.99), "ns", mv);
        r.layer("nvalloc.free.vns.p50", all.free_v.pct(0.50), "ns", fv);
        r.layer("nvalloc.free.vns.p99", all.free_v.pct(0.99), "ns", fv);
        r.layer("nvalloc.large.malloc.wall_ns.p99", all.large_wall.pct(0.99),
                "ns", "n=" + std::to_string(all.large_wall.size()) + " traced");
        r.layer("nvalloc.large.malloc.vns.p99", all.large_v.pct(0.99), "ns",
                "n=" + std::to_string(all.large_v.size()));
        reportKinds(r, all.kinds, traced.calls);
        double plain_rate = double(plain.calls) / plain.wall_s;
        double traced_rate =
            traced.wall_s > 0 ? double(traced.calls) / traced.wall_s : 0;
        r.layer("trace.overhead_ratio",
                plain_rate > 0 ? traced_rate / plain_rate : 0, "ratio",
                "traced / untraced ops_per_s");
        reportSpans(r, tps, a, traced.calls);
    }
    return r.finish(a.trace, gate_bad == 0, attempted, failed);
}

} // namespace perfbench

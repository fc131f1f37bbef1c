/**
 * @file
 * kv-update (YCSB-A, zipfian, one client) and kv-read (YCSB-B, uniform,
 * four clients) over KvStore.
 *
 * One run: build the op streams from the seed and print their hash;
 * set the store up `reps` times (device, heap, store, load) and keep
 * the last; snap ctl counters; run the timed closed loop; snap again;
 * restart `reps` times (dirtyRestart, NvAlloc::open, KvStore::open);
 * setup_s and recover_s are the medians. Then the correctness gate: verify(), count(), and
 * every key read back against the benchmark's own oracle.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "kv/kv_store.h"
#include "workloads/ycsb.h"

namespace perfbench {

using namespace nvalloc;

namespace {

struct KvSpec
{
    const char *name;
    uint64_t records;
    unsigned clients;
    bool zipfian;
    unsigned get_pct;
    /** Ops generated per client per second of run, up to kMaxStream;
     *  a client that runs past its stream starts it again. */
    uint64_t ops_per_client_s;
    /** Set-ups and restarts per run (medians are reported). */
    int reps;
};

constexpr uint32_t kLargeValue = 16384;
constexpr uint64_t kMaxStream = uint64_t{1} << 22;
/** Ops of the one-client latency probe (multi-client workloads). */
constexpr uint64_t kProbeOps = 1'000'000;
/** How long a lone client stays on one CPU (see CpuRotor): the load
 *  is short, so it moves more often. */
constexpr uint64_t kRotateNs = 250'000'000;
constexpr uint64_t kLoadRotateNs = 50'000'000;
constexpr uint32_t kLargeEvery = 1024;

/** FNV-1a over the 8 bytes of x: the hash ycsbKey() names ids with. */
uint64_t
fnv64(uint64_t x)
{
    return mix(kHashSeed, x);
}

/** ycsbKey(id) without the snprintf + heap string per op. */
struct KeyBuf
{
    char b[32];

    std::string_view
    make(uint64_t id)
    {
        uint64_t h = fnv64(id);
        char digits[24];
        int n = 0;
        do {
            digits[n++] = char('0' + h % 10);
            h /= 10;
        } while (h);
        b[0] = 'u', b[1] = 's', b[2] = 'e', b[3] = 'r';
        for (int i = 0; i < n; ++i)
            b[4 + i] = digits[n - 1 - i];
        return {b, size_t(4 + n)};
    }
};

uint32_t
smallLen(uint64_t r)
{
    return 64 + uint32_t(r % 193); // 64..256 B
}

uint32_t
loadLen(uint64_t seed, uint64_t id)
{
    if (id % kLargeEvery == kLargeEvery - 1)
        return kLargeValue;
    return smallLen(mix(mix(kHashSeed, seed), id));
}

/** Last acknowledged (version, length) per id; the value bytes are
 *  recomputed with ycsbValue(). Clients put only ids of their own
 *  residue class, so each slot has one writer. */
struct Oracle
{
    std::vector<uint64_t> version;
    std::vector<uint32_t> len;
};

struct KvOp
{
    uint32_t id;
    uint32_t vlen; //!< 0 = get
};

std::vector<std::vector<KvOp>>
makeStreams(const KvSpec &s, const Args &a, uint64_t *hash)
{
    uint64_t per_client =
        a.ops ? a.ops
              : std::min(kMaxStream,
                         uint64_t(double(s.ops_per_client_s) *
                                  (a.seconds > 1 ? a.seconds : 1)));
    ZipfianGenerator zipf(s.records, 0.99);
    std::vector<std::vector<KvOp>> out(s.clients);
    uint64_t h = mix(mix(kHashSeed, a.seed), s.records);
    for (unsigned c = 0; c < s.clients; ++c) {
        Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + c + 1);
        uint64_t puts = 0;
        out[c].reserve(per_client);
        for (uint64_t i = 0; i < per_client; ++i) {
            uint64_t id = s.zipfian ? zipf.next(rng)
                                    : rng.nextBounded(s.records);
            KvOp op{uint32_t(id), 0};
            if (rng.nextBounded(100) >= s.get_pct) {
                // Puts stay in the client's residue class.
                id = id - id % s.clients + c;
                if (id >= s.records)
                    id -= s.clients;
                op.id = uint32_t(id);
                op.vlen = ++puts % kLargeEvery == 0
                              ? kLargeValue
                              : smallLen(rng.next());
            }
            out[c].push_back(op);
            h = mix(h, (uint64_t(op.id) << 32) | op.vlen);
        }
    }
    *hash = h;
    return out;
}

struct Kv
{
    std::unique_ptr<PmDevice> dev;
    std::unique_ptr<NvAlloc> heap;
    std::unique_ptr<KvStore> store;

    /** Tear down store, heap, device, in that order. */
    void
    reset()
    {
        store.reset();
        heap.reset();
        dev.reset();
    }
};

KvOptions
storeOptions(const KvSpec &s, bool create)
{
    KvOptions ko;
    ko.buckets = s.records;
    ko.create = create;
    return ko;
}

/** Device, heap, store, load; false when anything fails. *vend is
 *  the latest virtual time a loader reached, where the timed phase
 *  starts so it never queues behind the load's bookings. */
bool
setupKv(const KvSpec &s, uint64_t seed, Kv &kv, Oracle &orc, uint64_t *vend)
{
    PmDeviceConfig dc;
    dc.size = size_t{4} << 30;
    kv.dev = std::make_unique<PmDevice>(dc);
    OpenResult o = NvAlloc::open(*kv.dev);
    if (!o)
        return false;
    kv.heap = std::move(o.heap);
    kv.store = KvStore::open(*kv.heap, storeOptions(s, true));
    if (!kv.store)
        return false;
    orc.version.assign(s.records, 0);
    orc.len.assign(s.records, 0);
    std::atomic<uint64_t> bad{0};
    std::vector<uint64_t> vends(s.clients);
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < s.clients; ++c) {
        ts.emplace_back([&, c] {
            ThreadCtx *ctx = kv.heap->attachThread();
            if (!ctx) {
                bad.fetch_add(1);
                return;
            }
            VClock::reset();
            std::optional<CpuRotor> rotor;
            if (s.clients == 1)
                rotor.emplace(kLoadRotateNs);
            KeyBuf kb;
            for (uint64_t id = c; id < s.records; id += s.clients) {
                if (rotor && id % 1024 == 0)
                    rotor->tick(wallNs());
                uint32_t len = loadLen(seed, id);
                if (kv.store->put(*ctx, kb.make(id), ycsbValue(id, 0, len)) !=
                    KvStatus::Ok)
                    bad.fetch_add(1);
                orc.len[id] = len;
            }
            kv.heap->detachThread(ctx);
            vends[c] = VClock::now();
        });
    }
    for (auto &t : ts)
        t.join();
    *vend = *std::max_element(vends.begin(), vends.end());
    return bad.load() == 0;
}

struct ClientOut
{
    uint64_t ops = 0, gets = 0, puts = 0, failed = 0;
    uint64_t traced_puts = 0;
    /** Wall samples of the untraced ops; put_v holds the first
     *  kVirtualSamples puts. */
    Samples get_wall, put_wall, put_v;
    Kinds kinds{};
    uint64_t put_seq = 0;
    size_t pos = 0;
};

/** The closed loop: next op only after the previous one returned. */
template <bool T>
void
clientLoop(KvStore &st, ThreadCtx &ctx, const std::vector<KvOp> &ops,
           uint64_t client, bool lone, uint64_t deadline, uint64_t max_ops,
           Oracle &orc, Tracer *tr, ClientOut &out)
{
    Probe<T> p{tr, 0};
    KeyBuf kb;
    std::string got;
    std::optional<CpuRotor> rotor;
    if (lone)
        rotor.emplace(kRotateNs);
    for (uint64_t done = 0;; ++done) {
        if ((done & 31) == 0) {
            uint64_t now = wallNs();
            if (max_ops ? done >= max_ops : now >= deadline)
                break;
            if (rotor)
                rotor->tick(now);
        } else if (max_ops && done >= max_ops) {
            break;
        }
        const KvOp &op = ops[out.pos++ % ops.size()];
        std::string_view key = kb.make(op.id);
        p.op = (client << 48) | out.ops;
        uint64_t t0 = T ? wallNs() : 0;
        uint64_t ns;
        Kinds k0{}, k1{};
        if (op.vlen == 0) {
            p.snap(k0);
            p.vnow();
            KvStatus s = p.call(SpanName::KvGet, &ns,
                                [&] { return st.get(key, &got); });
            p.vnow();
            p.snap(k1);
            if constexpr (!T)
                out.get_wall.add(ns);
            ++out.gets;
            if (s != KvStatus::Ok)
                ++out.failed;
        } else {
            uint64_t ver = (client << 40) | ++out.put_seq;
            std::string val = ycsbValue(op.id, ver, op.vlen);
            p.snap(k0);
            uint64_t v0 = p.vnow();
            KvStatus s = p.call(SpanName::KvPut, &ns,
                                [&] { return st.put(ctx, key, val); });
            uint64_t v1 = p.vnow();
            p.snap(k1);
            if constexpr (!T)
                out.put_wall.add(ns);
            if (out.put_v.size() < kVirtualSamples)
                out.put_v.add(v1 - v0);
            ++out.puts;
            if constexpr (T)
                ++out.traced_puts;
            if (s == KvStatus::Ok) {
                orc.version[op.id] = ver;
                orc.len[op.id] = op.vlen;
            } else {
                ++out.failed;
            }
        }
        if constexpr (T)
            for (unsigned k = 0; k < kNumTimeKinds; ++k)
                out.kinds[k] += k1[k] - k0[k];
        p.endOp(t0);
        ++out.ops;
    }
}

struct Phase
{
    uint64_t ops = 0;
    double wall_s = 0;
    uint64_t vmakespan = 0;
};

/**
 * Run every client for one phase. Traced runs split the time: the
 * first half untraced (`plain`), the second half traced (`traced`),
 * so tracing overhead is measured in one process.
 */
void
runClients(const KvSpec &s, const Args &a, Kv &kv,
           const std::vector<std::vector<KvOp>> &streams, Oracle &orc,
           uint64_t vbase, std::vector<ClientOut> &outs,
           std::vector<Tracer> &tracers, Phase &plain, Phase &traced)
{
    std::vector<std::thread> ts;
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<uint64_t> v_end(s.clients), ops1(s.clients), ops2(s.clients);
    std::vector<uint64_t> t_end1(s.clients), t_end2(s.clients);
    uint64_t deadline1 = 0, deadline2 = 0, t_start = 0;
    for (unsigned c = 0; c < s.clients; ++c) {
        ts.emplace_back([&, c] {
            ThreadCtx *ctx = kv.heap->attachThread();
            VClock::reset();
            VClock::setNow(vbase);
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            if (!ctx) {
                ++outs[c].failed;
                return;
            }
            bool lone = s.clients == 1;
            clientLoop<false>(*kv.store, *ctx, streams[c], c, lone,
                              deadline1, a.ops, orc, nullptr, outs[c]);
            ops1[c] = outs[c].ops;
            t_end1[c] = wallNs();
            if (a.trace) {
                clientLoop<true>(*kv.store, *ctx, streams[c], c, lone,
                                 deadline2, 0, orc, &tracers[c], outs[c]);
                t_end2[c] = wallNs();
            }
            ops2[c] = outs[c].ops - ops1[c];
            v_end[c] = VClock::now() - vbase;
            kv.heap->detachThread(ctx);
        });
    }
    while (ready.load() < s.clients)
        std::this_thread::yield();
    t_start = wallNs();
    uint64_t span = uint64_t(a.seconds * 1e9);
    deadline1 = t_start + (a.trace ? span / 2 : span);
    deadline2 = t_start + span;
    go.store(true, std::memory_order_release);
    for (auto &t : ts)
        t.join();
    uint64_t end1 = 0, end2 = 0;
    for (unsigned c = 0; c < s.clients; ++c) {
        plain.ops += ops1[c];
        traced.ops += ops2[c];
        end1 = std::max(end1, t_end1[c]);
        end2 = std::max(end2, t_end2[c]);
        plain.vmakespan = std::max(plain.vmakespan, v_end[c]);
    }
    plain.wall_s = double(end1 - t_start) * 1e-9;
    if (a.trace)
        traced.wall_s = double(end2 - end1) * 1e-9;
}

struct Reopen
{
    double heap_ms, kv_ms, total_s, vms;
    uint64_t heap_vns;
};

/** dirtyRestart + timed NvAlloc::open + KvStore::open. */
bool
restartKv(const KvSpec &s, Kv &kv, Tracer &tr, uint64_t op, Reopen &out,
          RecoveryInfo *rec, uint64_t *rebuilt)
{
    kv.store.reset();
    uint64_t a = wallNs();
    kv.heap->dirtyRestart();
    tr.push(SpanName::NvDirtyRestart, a, wallNs(), op, true);
    kv.heap.reset();

    uint64_t t0 = wallNs(), v0 = VClock::now();
    OpenResult o = NvAlloc::open(*kv.dev);
    uint64_t t1 = wallNs(), v1 = VClock::now();
    tr.push(SpanName::NvOpen, t0, t1, op, true);
    if (!o)
        return false;
    kv.heap = std::move(o.heap);
    kv.store = KvStore::open(*kv.heap, storeOptions(s, false));
    uint64_t t2 = wallNs(), v2 = VClock::now();
    tr.push(SpanName::KvOpen, t1, t2, op, true);
    tr.push(SpanName::Op, t0, t2, op, true);
    out = {double(t1 - t0) * 1e-6, double(t2 - t1) * 1e-6,
           double(t2 - t0) * 1e-9, double(v2 - v0) * 1e-6, v1 - v0};
    if (rec)
        *rec = kv.heap->lastRecovery();
    if (kv.store && rebuilt)
        *rebuilt = kv.store->stats().rebuilt_records.load();
    return bool(kv.store);
}

/** verify(), count() and every key against the oracle; returns the
 *  number of failed checks. */
uint64_t
gateKv(const KvSpec &s, Kv &kv, const Oracle &orc, Tracer &tr, uint64_t op,
       Report &r)
{
    uint64_t bad = 0;
    uint64_t a = wallNs();
    KvStatus v = kv.store->verify();
    tr.push(SpanName::KvVerify, a, wallNs(), op, true);
    if (v != KvStatus::Ok) {
        r.info(std::string("gate: verify() = ") + kvStatusName(v));
        ++bad;
    }
    if (kv.store->count() != s.records) {
        r.info("gate: count() = " + std::to_string(kv.store->count()) +
               ", expected " + std::to_string(s.records));
        ++bad;
    }
    KeyBuf kb;
    std::string got;
    uint64_t wrong = 0;
    for (uint64_t id = 0; id < s.records; ++id) {
        KvStatus g = kv.store->get(kb.make(id), &got);
        if (g != KvStatus::Ok ||
            got != ycsbValue(id, orc.version[id], orc.len[id]))
            ++wrong;
    }
    if (wrong)
        r.info("gate: " + std::to_string(wrong) +
               " keys do not read back their last acknowledged version");
    r.info("gate: verify, count and " + std::to_string(s.records) +
           " oracle reads done");
    return bad + wrong;
}

int
runKv(const KvSpec &s, const Args &a)
{
    Report r;
    uint64_t hash = 0;
    auto streams = makeStreams(s, a, &hash);
    char hbuf[40];
    std::snprintf(hbuf, sizeof(hbuf), "%016llx", (unsigned long long)hash);
    r.info(std::string("workload ") + s.name + " seed " +
           std::to_string(a.seed) + " input hash " + hbuf);

    Tracer ctl_tr(size_t{1} << 12);
    Kv kv;
    Oracle orc;
    std::vector<double> setups;
    uint64_t vbase = 0;
    for (int rep = 0; rep < s.reps; ++rep) {
        kv.reset();
        double t0 = wallS();
        if (!setupKv(s, a.seed, kv, orc, &vbase)) {
            r.info("setup failed");
            return r.finish(a.trace, false, 1, 1);
        }
        setups.push_back(wallS() - t0);
    }

    // With several clients every latency percentile comes from one
    // client running alone first (rotating over the CPUs): with every
    // CPU busy, the clients' wall tails measure the scheduler and their
    // virtual tails the order the host ran them in (ROADMAP item 1).
    ClientOut probe;
    if (s.clients > 1) {
        if (ThreadCtx *ctx = kv.heap->attachThread()) {
            VClock::reset();
            VClock::setNow(vbase);
            clientLoop<false>(*kv.store, *ctx, streams[0], s.clients, true,
                              0, kProbeOps, orc, nullptr, probe);
            vbase = VClock::now();
            kv.heap->detachThread(ctx);
        } else {
            ++probe.failed;
        }
    }
    const ClientOut *lat = &probe;

    uint64_t snap_op = uint64_t(0xfffe) << 48;
    CtlSnap before = snapCtl(*kv.heap, &ctl_tr, snap_op);
    std::vector<ClientOut> outs(s.clients);
    std::vector<Tracer> tracers;
    if (a.trace)
        tracers.resize(s.clients);
    Phase plain, traced;
    runClients(s, a, kv, streams, orc, vbase, outs, tracers, plain, traced);
    CtlSnap after = snapCtl(*kv.heap, &ctl_tr, snap_op + 1);

    ClientOut all;
    for (ClientOut &o : outs) {
        all.ops += o.ops;
        all.gets += o.gets;
        all.puts += o.puts;
        all.failed += o.failed;
        all.get_wall.append(o.get_wall);
        all.put_wall.append(o.put_wall);
        all.put_v.append(o.put_v);
        for (unsigned k = 0; k < kNumTimeKinds; ++k)
            all.kinds[k] += o.kinds[k];
    }
    double committed = double(after.at("stats.heap.committed_bytes"));
    double user = double(after.at("stats.kv.key_bytes") +
                         after.at("stats.kv.value_bytes"));
    uint64_t max_chain = kv.store->maxChain();
    double load_factor = double(kv.store->count()) / double(kv.store->buckets());

    std::vector<double> rs, rvms, heap_ms, kv_ms, heap_vns;
    RecoveryInfo rec;
    uint64_t rebuilt = 0;
    CpuRotor rotor(0); // each restart on the next CPU
    for (int rep = 0; rep < s.reps; ++rep) {
        rotor.tick(wallNs());
        Reopen ro{};
        if (!restartKv(s, kv, ctl_tr, (uint64_t(0xffff) << 48) | rep, ro,
                       rep == 0 ? &rec : nullptr, rep == 0 ? &rebuilt : nullptr)) {
            r.info("reopen failed");
            return r.finish(a.trace, false, all.ops + probe.ops + 1,
                            all.failed + probe.failed + 1);
        }
        rs.push_back(ro.total_s);
        rvms.push_back(ro.vms);
        heap_ms.push_back(ro.heap_ms);
        kv_ms.push_back(ro.kv_ms);
        heap_vns.push_back(double(ro.heap_vns));
    }
    uint64_t gate_bad = gateKv(s, kv, orc, ctl_tr, uint64_t(0xfffd) << 48, r);
    uint64_t failed = all.failed + probe.failed + gate_bad;
    uint64_t attempted = all.ops + probe.ops;
    if (s.clients == 1)
        lat = &all;

    // Wall figures come from the untraced ops only: the whole phase in
    // a plain run, the first half in a traced one.
    uint64_t us = 1000;
    r.info("phase: " + std::to_string(plain.ops) + " untraced ops in " +
           std::to_string(plain.wall_s) + " s; " + std::to_string(all.gets) +
           " gets, " + std::to_string(all.puts) + " puts in total");
    r.e2e("setup_s", median(setups), "s",
          "median of " + std::to_string(setups.size()) + " set-ups");
    r.e2e("ops_per_s", double(plain.ops) / plain.wall_s, "1/s",
          std::to_string(plain.ops) + " ops in " +
              std::to_string(plain.wall_s) + " s, " +
              std::to_string(s.clients) + " clients");
    r.e2e("vops_per_s",
          plain.vmakespan ? double(all.ops) / (double(plain.vmakespan) * 1e-9)
                          : 0,
          "1/vs", "ops / virtual makespan");
    std::string from = s.clients > 1 ? ", one-client probe" : "";
    std::string gn = "n=" + std::to_string(lat->get_wall.size()) + from;
    std::string pn = "n=" + std::to_string(lat->put_wall.size()) + from;
    r.e2e("get_p50_us", lat->get_wall.pct(0.50) / us, "us", gn);
    r.e2e("get_p99_us", lat->get_wall.pct(0.99) / us, "us", gn);
    r.e2e("put_p50_us", lat->put_wall.pct(0.50) / us, "us", pn);
    r.e2e("put_p99_us", lat->put_wall.pct(0.99) / us, "us", pn);
    std::string vn = "n=" + std::to_string(lat->put_v.size()) + from;
    r.e2e("put_vus_p50", lat->put_v.pct(0.50) / us, "vus", vn);
    r.e2e("put_vus_p99", lat->put_v.pct(0.99) / us, "vus", vn);
    r.e2e("recover_s", median(rs), "s",
          "median of " + std::to_string(rs.size()) + " restarts");
    r.e2e("recover_vms", median(rvms), "vms",
          "median of " + std::to_string(rvms.size()) + " restarts");
    r.e2e("space_amp", user > 0 ? committed / user : 0, "ratio",
          "of " + std::to_string(uint64_t(user)) + " key+value bytes");
    r.e2e("rss_mb", peakRssMb(), "MB");

    reportCounters(r, before, after, all.ops);
    r.ratio("fail_ratio", double(failed), double(attempted), "ops attempted");
    r.layer("kv.chain.max", double(max_chain), "count");
    r.layer("kv.load_factor", load_factor, "ratio",
            "of " + std::to_string(kv.store->buckets()) + " buckets");
    r.layer("recovery.heap_open.wall_ms", median(heap_ms), "ms");
    r.layer("recovery.heap_open.vns", median(heap_vns), "ns");
    r.layer("recovery.kv_open.wall_ms", median(kv_ms), "ms");
    r.layer("recovery.slabs_rebuilt", double(rec.slabs_rebuilt), "count");
    r.layer("recovery.extents_rebuilt", double(rec.extents_rebuilt), "count");
    r.layer("recovery.wal_completions", double(rec.wal_completions), "count");
    r.layer("kv.rebuilt_records", double(rebuilt), "count");
    reportNa(r, {{"nvalloc.malloc.wall_ns.p50", "ns"},
                 {"nvalloc.malloc.wall_ns.p99", "ns"},
                 {"nvalloc.free.wall_ns.p50", "ns"},
                 {"nvalloc.free.wall_ns.p99", "ns"},
                 {"nvalloc.malloc.vns.p50", "ns"},
                 {"nvalloc.malloc.vns.p99", "ns"},
                 {"nvalloc.free.vns.p50", "ns"},
                 {"nvalloc.free.vns.p99", "ns"},
                 {"nvalloc.large.malloc.wall_ns.p99", "ns"},
                 {"nvalloc.large.malloc.vns.p99", "ns"}});

    if (a.trace) {
        // Per-call wall percentiles and the breakdown come from the
        // traced half only.
        ClientOut tr_all;
        std::vector<const Tracer *> tps;
        for (Tracer &t : tracers)
            tps.push_back(&t);
        tps.push_back(&ctl_tr);
        Samples gw, pw;
        for (Tracer &t : tracers)
            for (const Span &sp : t.spans()) {
                if (sp.name == SpanName::KvGet)
                    gw.add(sp.dur);
                else if (sp.name == SpanName::KvPut)
                    pw.add(sp.dur);
            }
        std::string gn2 = "n=" + std::to_string(gw.size()) + " traced";
        std::string pn2 = "n=" + std::to_string(pw.size()) + " traced";
        r.layer("kv.get.wall_ns.p50", gw.pct(0.50), "ns", gn2);
        r.layer("kv.get.wall_ns.p99", gw.pct(0.99), "ns", gn2);
        r.layer("kv.get.wall_ns.p999", gw.pct(0.999), "ns", gn2);
        r.layer("kv.put.wall_ns.p50", pw.pct(0.50), "ns", pn2);
        r.layer("kv.put.wall_ns.p99", pw.pct(0.99), "ns", pn2);
        r.layer("kv.put.wall_ns.p999", pw.pct(0.999), "ns", pn2);
        uint64_t traced_puts = 0;
        for (const ClientOut &o : outs)
            traced_puts += o.traced_puts;
        reportKinds(r, all.kinds, traced.ops);
        r.ratio("kv.lock_wait_vns_per_op",
                double(all.kinds[unsigned(TimeKind::LockWait)]),
                double(traced.ops), "traced kv ops", "ns");
        r.ratio("tx.wal_vns_per_put",
                double(all.kinds[unsigned(TimeKind::FlushWal)]),
                double(traced_puts), "traced puts", "ns");
        double plain_rate = double(plain.ops) / plain.wall_s;
        double traced_rate = traced.wall_s > 0 ? double(traced.ops) / traced.wall_s : 0;
        r.layer("trace.overhead_ratio", plain_rate > 0 ? traced_rate / plain_rate : 0,
                "ratio", "traced / untraced ops_per_s");
        reportSpans(r, tps, a, traced.ops);
    }
    return r.finish(a.trace, gate_bad == 0, attempted, failed);
}

} // namespace

int
runKvUpdate(const Args &a)
{
    return runKv({"kv-update", 200'000, 1, true, 50, 600'000, 5}, a);
}

int
runKvRead(const Args &a)
{
    return runKv({"kv-read", 1'000'000, 4, false, 95, 500'000, 3}, a);
}

} // namespace perfbench

/**
 * @file
 * Shared pieces of the benchmark program: command line, clocks, sample
 * sets, the span recorder, ctl counter snapshots and the metric report.
 *
 * The program only calls the library's public surface (KvStore, NvAlloc,
 * VClock); everything here lives outside src/ so the library is
 * measured exactly as a user links it.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nvalloc/nvalloc.h"
#include "pm/vclock.h"

namespace perfbench {

using nvalloc::kNumTimeKinds;
using Kinds = std::array<uint64_t, kNumTimeKinds>;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Fixed op count instead of a deadline (0 = run for `seconds`).
     *  With one client this makes every virtual figure and count
     *  repeat exactly for a seed; test_replay.py relies on it. */
    uint64_t ops = 0;
    /** Where the traced run writes its spans ("" = do not write). */
    std::string trace_dir;
};

inline uint64_t
wallNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

inline double
wallS()
{
    return double(wallNs()) * 1e-9;
}

/**
 * Per-call virtual latencies are kept for each client's first
 * kVirtualSamples calls of a kind only. The heap is still filling its
 * size classes then, and how far past that a run gets depends on the
 * host's speed: kv-read's put p99 read 8.6 vus over 10 s runs and 3.9
 * to 7.7 over 20 s runs. A fixed budget makes the figure independent
 * of run length and host.
 */
constexpr uint64_t kVirtualSamples = 200'000;

/** FNV-1a over 8 bytes; folds op streams into the printed input hash. */
inline uint64_t
mix(uint64_t h, uint64_t x)
{
    for (int i = 0; i < 8; ++i) {
        h ^= x & 0xff;
        h *= 0x100000001b3ULL;
        x >>= 8;
    }
    return h;
}

constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/**
 * Per-op timings (ns) in a log-linear histogram: exact below 2048 ns,
 * within 1/1024 above, in fixed memory however long the run. Keeping
 * every sample would make the process's RSS grow with the op count.
 */
class Samples
{
  public:
    Samples() : counts_(kBuckets, 0) {}

    void
    add(uint64_t ns)
    {
        ++counts_[bucket(ns)];
        ++n_;
    }

    uint64_t size() const { return n_; }
    void append(const Samples &o);
    /** Lower edge of the bucket holding rank q * (n - 1); 0 when empty. */
    double pct(double q) const;

  private:
    static constexpr unsigned kSubBits = 10;
    static constexpr size_t kBuckets = size_t(64) << kSubBits;

    static size_t
    bucket(uint64_t v)
    {
        if (v < (uint64_t(2) << kSubBits))
            return size_t(v);
        unsigned e = unsigned(63 - __builtin_clzll(v)) - kSubBits;
        size_t b = (size_t(e) << kSubBits) + size_t(v >> e);
        return b < kBuckets ? b : kBuckets - 1;
    }

    static uint64_t lowerEdge(size_t b);

    std::vector<uint64_t> counts_;
    uint64_t n_ = 0;
};

double median(std::vector<double> v);

/**
 * Moves a lone client round-robin over the CPUs the process may use,
 * every `period_ns` of wall time. On a shared host the CPUs differ in
 * how much other tenants slow them, and a thread left where the
 * scheduler put it measures one CPU's luck; rotating samples them all
 * in every run. Restores the full CPU set when destroyed.
 */
class CpuRotor
{
  public:
    explicit CpuRotor(uint64_t period_ns);
    ~CpuRotor();
    CpuRotor(const CpuRotor &) = delete;
    CpuRotor &operator=(const CpuRotor &) = delete;

    /** Pin to the next CPU once a period has passed since the last. */
    void
    tick(uint64_t now)
    {
        if (now >= next_)
            rotate(now);
    }

  private:
    void rotate(uint64_t now);

    std::vector<int> cpus_;
    uint64_t period_;
    size_t at_ = 0;
    uint64_t next_ = 0;
};

// ---- span recorder --------------------------------------------------

/** Every public call the traced run records, plus the op that caused
 *  it. Names are printed as the callee's qualified name. */
enum class SpanName : uint16_t
{
    Op,
    KvGet,
    KvPut,
    KvOpen,
    KvVerify,
    NvMallocTo,
    NvFreeFrom,
    NvOpen,
    NvDirtyRestart,
    NvCtlRead,
    VcNow,
    VcSnapshot,
    Count,
};

const char *spanName(SpanName n);

/** Layer a span's self time is charged to (ROADMAP layer names); the
 *  opens inside a restart op belong to recovery. */
const char *spanLayer(SpanName n, bool control);

struct Span
{
    uint64_t start; //!< wall ns
    uint64_t op;    //!< op id; the Op span of the same id is the parent
    uint32_t dur;   //!< wall ns
    SpanName name;
    uint16_t control; //!< 1 for snapshot, restart and gate ops
};

/**
 * Per-thread span store: a ring that keeps the most recent `cap`
 * spans, so a long traced run pays the same cost per op and bounded
 * memory. Children are pushed before their Op span.
 */
class Tracer
{
  public:
    explicit Tracer(size_t cap = size_t{1} << 21) : cap_(cap) { ring_.reserve(cap); }

    void
    push(SpanName n, uint64_t t0, uint64_t t1, uint64_t op, bool control = false)
    {
        Span s{t0, op, uint32_t(t1 - t0), n, uint16_t(control)};
        if (ring_.size() < cap_)
            ring_.push_back(s);
        else
            ring_[head_] = s;
        head_ = (head_ + 1) % cap_;
        ++total_;
    }

    /** Spans oldest first. */
    std::vector<Span> spans() const;
    uint64_t total() const { return total_; }

  private:
    size_t cap_;
    size_t head_ = 0;
    uint64_t total_ = 0;
    std::vector<Span> ring_;
};

/** Timing wrapper used inside the op loops. With T=false it compiles
 *  to the bare call (plus the wall stamps the untraced run needs for
 *  latencies); with T=true every listed call also becomes a span. */
template <bool T>
struct Probe
{
    Tracer *tr = nullptr;
    uint64_t op = 0;

    uint64_t
    vnow()
    {
        if constexpr (T) {
            uint64_t a = wallNs();
            uint64_t v = nvalloc::VClock::now();
            tr->push(SpanName::VcNow, a, wallNs(), op);
            return v;
        } else {
            return nvalloc::VClock::now();
        }
    }

    /** VClock::snapshot, traced run only (the untraced run reads the
     *  per-kind buckets once per phase instead). */
    void
    snap(Kinds &into)
    {
        if constexpr (T) {
            uint64_t a = wallNs();
            into = nvalloc::VClock::snapshot();
            tr->push(SpanName::VcSnapshot, a, wallNs(), op);
        }
    }

    /** Run f, return its wall duration in *ns; span it when traced. */
    template <class F>
    auto
    call(SpanName n, uint64_t *ns, F &&f)
    {
        uint64_t a = wallNs();
        auto r = f();
        uint64_t b = wallNs();
        *ns = b - a;
        if constexpr (T)
            tr->push(n, a, b, op);
        return r;
    }

    void
    endOp(uint64_t t0)
    {
        if constexpr (T)
            tr->push(SpanName::Op, t0, wallNs(), op);
    }
};

// ---- ctl counters ---------------------------------------------------

/** Every ctl leaf the report reads; snapped before and after the
 *  timed phase, printed as deltas. */
const std::vector<std::string> &ctlNames();

using CtlSnap = std::map<std::string, uint64_t>;

/** Read every ctlNames() leaf through NvAlloc::ctlRead (spanned into
 *  `tr` when given). Unknown names read as 0. */
CtlSnap snapCtl(nvalloc::NvAlloc &heap, Tracer *tr, uint64_t op);

// ---- report ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; //!< base of a ratio, sample count, or "n/a"
};

/**
 * Collects every metric of a run. Lines print as they are added;
 * finish() prints the closing JSON object with the end-to-end
 * metrics (untraced run) or the per-layer ones (traced run).
 */
class Report
{
  public:
    void e2e(const std::string &name, double v, const std::string &unit,
             const std::string &note = "");
    void layer(const std::string &name, double v, const std::string &unit,
               const std::string &note = "");
    /** A ratio with its base printed beside it; 0 when base is 0. */
    void ratio(const std::string &name, double num, double base,
               const std::string &base_what, const std::string &unit = "ratio");
    void info(const std::string &line);

    /** Print the closing JSON line; returns the process exit code. */
    int finish(bool trace, bool correct, uint64_t attempted, uint64_t failed);

  private:
    std::vector<Metric> e2e_, layer_;
};

/** Counter deltas and the ratios every workload reports (pm, tx,
 *  nvalloc and kv families), `ops` being the workload's op count. */
void reportCounters(Report &r, const CtlSnap &before, const CtlSnap &after,
                    uint64_t ops);

/** Per-layer metrics a workload does not exercise: reported as 0 so
 *  every run prints the same names, marked n/a. */
void reportNa(Report &r, const std::vector<std::pair<std::string, std::string>> &name_unit);

/** Per-kind virtual ns per op (Fig 11's breakdown). */
void reportKinds(Report &r, const Kinds &k, uint64_t ops);

/** Self time per layer from the spans, the span count, and the dump
 *  of the newest spans. `ops` = traced ops. */
void reportSpans(Report &r, const std::vector<const Tracer *> &tracers,
                 const Args &a, uint64_t ops);

/** Peak resident set of this process in MB. */
double peakRssMb();

int runKvUpdate(const Args &a);
int runKvRead(const Args &a);
int runAllocChurn(const Args &a);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

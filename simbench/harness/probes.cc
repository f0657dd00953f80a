#include "probes.hh"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>

#include "isolate.hh"
#include "src/apps/app.hh"
#include "src/ft/checkpoint_loop.hh"
#include "src/ft/design.hh"
#include "src/fti/fti.hh"
#include "src/fti/rs_codec.hh"
#include "src/simmpi/proc.hh"
#include "src/simmpi/runtime.hh"
#include "src/storage/backend.hh"
#include "src/storage/blob.hh"
#include "src/storage/drain.hh"
#include "src/storage/faults.hh"
#include "src/storage/transform.hh"
#include "src/util/crc32c.hh"
#include "src/util/gf256.hh"

namespace simbench
{

namespace
{

using match::simmpi::JobOptions;
using match::simmpi::Proc;
using match::simmpi::Runtime;
using Bytes = std::vector<std::uint8_t>;

/** Keeps timed results observable so no call is optimized away. */
volatile std::uint32_t g_sink = 0;

/** Per-rank protected region of the checkpoint probes: the size class
 *  of one rank's small-input checkpoint. */
constexpr std::size_t kRegionBytes = 256 * 1024;
/** Ranks of the checkpoint-layer probes (the workloads' 64-rank job). */
constexpr int kCkptRanks = 64;
/** Repetitions per timed call; the metric is their median. */
constexpr int kReps = 5;

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Incompressible bytes derived from `seed`. */
Bytes
noise(std::size_t bytes, std::uint64_t seed)
{
    Bytes out(bytes);
    std::uint64_t s = mix(seed);
    for (std::size_t i = 0; i < bytes; i += 8) {
        s = mix(s);
        std::memcpy(out.data() + i, &s, std::min<std::size_t>(8, bytes - i));
    }
    return out;
}

/** Runs of 64 equal bytes, adjacent runs distinct: the same
 *  compressibility for every seed. */
Bytes
runs(std::size_t bytes, std::uint64_t seed)
{
    Bytes out(bytes);
    std::uint8_t prev = 0;
    for (std::size_t i = 0; i < bytes; i += 64) {
        auto v = static_cast<std::uint8_t>(mix(seed + i) & 0xff);
        if (v == prev)
            v = static_cast<std::uint8_t>(v + 1);
        prev = v;
        std::memset(out.data() + i, v, std::min<std::size_t>(64, bytes - i));
    }
    return out;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The probe group being run: metrics, checks and spans. */
struct Probe
{
    ProbeResult out;
    int parent = -1;

    void metric(const std::string &name, double value, const char *unit)
    {
        out.metrics.push_back(LayerMetric{name, value, unit});
    }

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            out.failures.push_back(what);
    }

    /** Median wall seconds of `reps` spans named `name` around fn(). */
    template <typename Fn>
    double timed(const std::string &name, int reps, Fn &&fn)
    {
        std::vector<double> secs;
        for (int r = 0; r < reps; ++r) {
            const std::int64_t t0 = nowNs();
            fn();
            const std::int64_t t1 = nowNs();
            out.trace.add(name, t0, t1, parent);
            secs.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
        return median(secs);
    }
};

/** FTI configuration of the probes: the simulation defaults (mem
 *  backend, async drain at depth 4) on a fresh store. */
match::fti::FtiConfig
ftiConfigFor(const std::string &sandbox, const std::string &exec, int level)
{
    match::fti::FtiConfig cfg;
    cfg.ckptDir = sandbox;
    cfg.execId = exec;
    cfg.defaultLevel = level;
    cfg.backend = match::storage::makeBackend(match::storage::Kind::Mem);
    cfg.drain = std::make_shared<match::storage::DrainWorker>(
        match::storage::DrainMode::Async, 4);
    return cfg;
}

// ------------------------------------------------------------------ util

/** GF(2^8) product mod x^8+x^4+x^3+x+1 by shift-and-add, written apart
 *  from the library's log/antilog tables. */
std::uint8_t
gfMulReference(std::uint8_t a, std::uint8_t b)
{
    unsigned p = 0, x = a;
    for (unsigned y = b; y; y >>= 1) {
        if (y & 1)
            p ^= x;
        x <<= 1;
        if (x & 0x100)
            x ^= 0x11b;
    }
    return static_cast<std::uint8_t>(p);
}

void
probeUtil(Probe &p, std::uint64_t seed)
{
    namespace util = match::util;
    const char *digits = "123456789";
    p.check(util::crc32c(digits, 9) == 0xE3069283u,
            "crc32c(\"123456789\") != 0xE3069283");

    const Bytes buf = noise(4 << 20, seed);
    constexpr int kInner = 16;
    std::uint32_t sink = 0;
    const double crc_s = p.timed("util.crc32c", kReps, [&] {
        for (int i = 0; i < kInner; ++i)
            sink ^= util::crc32c(buf.data(), buf.size());
    });
    p.metric("util.crc32c_GBps", kInner * buf.size() / crc_s * 1e-9, "GB/s");

    const Bytes x = noise(1 << 20, seed + 1);
    Bytes y = noise(1 << 20, seed + 2);
    for (const std::uint8_t c : {0x02, 0x53, 0xca}) {
        Bytes got(y.begin(), y.begin() + 4096);
        util::gf256::mulAdd(got.data(), x.data(), got.size(), c);
        bool ok = true;
        for (std::size_t i = 0; i < got.size(); ++i)
            ok = ok && got[i] == (y[i] ^ gfMulReference(x[i], c));
        p.check(ok, "gf256::mulAdd disagrees with shift-and-add reference");
    }
    const double gf_s = p.timed("util.gf256_muladd", kReps, [&] {
        for (int i = 0; i < kInner; ++i)
            util::gf256::mulAdd(y.data(), x.data(), x.size(), 0x53);
    });
    p.metric("util.gf256_muladd_GBps", kInner * x.size() / gf_s * 1e-9,
             "GB/s");
    g_sink = sink ^ y[0];
}

// ------------------------------------------------------------ fti (RS)

void
probeRs(Probe &p, std::uint64_t seed)
{
    // FTI's L3 group shape: groupSize data shards, parityShards parity.
    const match::fti::FtiConfig defaults;
    const int k = defaults.groupSize, m = defaults.parityShards;
    const match::fti::RsCodec rs(k, m);
    std::vector<Bytes> data;
    for (int i = 0; i < k; ++i)
        data.push_back(noise(kRegionBytes, seed + 10 + i));

    std::vector<Bytes> parity;
    const double enc_s = p.timed("fti.rs_encode", kReps,
                                 [&] { parity = rs.encode(data); });
    p.metric("fti.rs_encode_GBps",
             static_cast<double>(k) * kRegionBytes / enc_s * 1e-9, "GB/s");

    // Any m erasures must reconstruct the original data shards.
    for (int a = 0; a < k + m; ++a) {
        for (int b = a + 1; b < k + m; ++b) {
            std::vector<std::optional<Bytes>> shards;
            for (int i = 0; i < k; ++i)
                shards.emplace_back(data[i]);
            for (int i = 0; i < m; ++i)
                shards.emplace_back(parity[i]);
            shards[a].reset();
            if (m > 1)
                shards[b].reset();
            p.check(rs.reconstruct(shards) == data,
                    "RS reconstruct after erasing shards " +
                        std::to_string(a) + "," + std::to_string(b) +
                        " did not return the data");
        }
    }
}

// -------------------------------------------------------------- storage

void
probeStorage(Probe &p, std::uint64_t seed)
{
    namespace st = match::storage;
    // Transforms: delta against a base differing in 1 of 8 blocks,
    // RLE compression of run-structured bytes.
    const Bytes base_bytes = noise(4 << 20, seed + 20);
    Bytes image_bytes = base_bytes;
    for (std::size_t i = 0; i < image_bytes.size(); i += 8 * 256)
        image_bytes[i] ^= 0x5a;
    const st::Blob base = st::Blob::fromVector(Bytes(base_bytes));
    const st::Blob image = st::Blob::fromVector(Bytes(image_bytes));
    st::Blob delta;
    const double delta_s = p.timed("storage.delta_encode", kReps, [&] {
        delta = st::deltaEncode(image, base, 1, 256);
    });
    p.metric("storage.delta_GBps", image.size() / delta_s * 1e-9, "GB/s");
    const st::Blob undelta = st::deltaDecode(delta, base, true);
    p.check(undelta.size() == image.size() &&
                std::memcmp(undelta.data(), image.data(), image.size()) == 0,
            "delta reverse(apply(x)) != x");

    const st::Blob raw = st::Blob::fromVector(runs(4 << 20, seed + 21));
    st::Blob packed, unpacked;
    const double comp_s = p.timed("storage.compress", kReps,
                                  [&] { packed = st::compressEncode(raw); });
    const double decomp_s = p.timed("storage.decompress", kReps, [&] {
        unpacked = st::compressDecode(packed, true);
    });
    p.metric("storage.compress_GBps", raw.size() / comp_s * 1e-9, "GB/s");
    p.metric("storage.decompress_GBps", raw.size() / decomp_s * 1e-9,
             "GB/s");
    p.check(unpacked.size() == raw.size() &&
                std::memcmp(unpacked.data(), raw.data(), raw.size()) == 0,
            "compress reverse(apply(x)) != x");

    // Mem backend: one checkpoint epoch of the 64-rank job.
    const Bytes region = noise(kRegionBytes, seed + 22);
    std::vector<double> write_s, fetch_s;
    for (int r = 0; r < kReps; ++r) {
        auto backend = st::makeBackend(st::Kind::Mem);
        st::BlobPool pool;
        std::vector<st::Blob> blobs;
        for (int i = 0; i < kCkptRanks; ++i)
            blobs.push_back(pool.copyOf(region.data(), region.size()));
        std::int64_t t0 = nowNs();
        for (int i = 0; i < kCkptRanks; ++i)
            backend->write("local/r" + std::to_string(i), std::move(blobs[i]));
        std::int64_t t1 = nowNs();
        p.out.trace.add("storage.mem_write", t0, t1, p.parent);
        write_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        bool same = true;
        t0 = nowNs();
        for (int i = 0; i < kCkptRanks; ++i) {
            const st::Blob got =
                st::fetch(*backend, "local/r" + std::to_string(i));
            same = same && got.size() == region.size() &&
                   std::memcmp(got.data(), region.data(), region.size()) == 0;
        }
        t1 = nowNs();
        p.out.trace.add("storage.mem_fetch", t0, t1, p.parent);
        fetch_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
        p.check(same, "mem backend fetch returned other bytes than written");
    }
    const double epoch_bytes = static_cast<double>(kCkptRanks) * kRegionBytes;
    p.metric("storage.mem_write_GBps", epoch_bytes / median(write_s) * 1e-9,
             "GB/s");
    p.metric("storage.mem_fetch_GBps", epoch_bytes / median(fetch_s) * 1e-9,
             "GB/s");

    // One L4-sized flush job (the whole job's epoch) through a default
    // DrainWorker, enqueue to wait.
    {
        const Bytes flush = noise(kCkptRanks * kRegionBytes, seed + 23);
        auto backend = st::makeBackend(st::Kind::Mem);
        st::DrainWorker drain(st::DrainMode::Async, 4);
        std::uint64_t shipped = 0;
        const double drain_s = p.timed("storage.drain_flush", kReps, [&] {
            const auto ticket = drain.enqueue(
                [&]() -> std::uint64_t {
                    backend->write("pfs/l4", flush.data(), flush.size());
                    return flush.size();
                },
                flush.size());
            shipped = drain.wait(ticket);
        });
        p.metric("storage.drain_flush_ms", drain_s * 1e3, "ms");
        const st::Blob got = st::fetch(*backend, "pfs/l4");
        p.check(shipped == flush.size() && got.size() == flush.size() &&
                    std::memcmp(got.data(), flush.data(), flush.size()) == 0,
                "drain flush did not land the job's bytes");
    }

    // A probe-owned BlobPool cycling checkpoint-sized buffers, four
    // live at a time (a rank's in-flight epochs).
    {
        st::BlobPool pool;
        const std::size_t sizes[] = {64 << 10, 256 << 10, 1 << 20};
        std::vector<st::Blob> live(4);
        std::uint64_t acquisitions = 0;
        std::uint64_t s = mix(seed + 24);
        {
            ScopedSpan span(p.out.trace, "storage.pool_cycle", p.parent);
            for (int i = 0; i < 400; ++i) {
                s = mix(s);
                st::MutableBlob b = pool.acquire(sizes[s % 3]);
                b.data()[0] = static_cast<std::uint8_t>(i);
                ++acquisitions;
                live[static_cast<std::size_t>(i) % live.size()] =
                    std::move(b).seal();
            }
        }
        live.clear();
        const st::BlobStats stats = pool.stats();
        p.check(stats.allocs + stats.poolHits == acquisitions,
                "BlobPool allocs + hits != acquisitions made");
        p.metric("storage.pool_hit_ratio",
                 static_cast<double>(stats.poolHits) /
                     static_cast<double>(acquisitions),
                 "ratio");
    }

    // One write through a transient PFS write-fault window: two
    // failed attempts, then success under the default retry budget.
    {
        st::StorageFaultPlan plan;
        plan.windows.push_back(
            st::FaultWindow{1, 1, st::PathClass::Pfs,
                            st::FaultKind::WriteFault, 2});
        st::FaultInjectingBackend backend(st::makeBackend(st::Kind::Mem),
                                          plan, st::kDefaultIoRetryLimit);
        backend.setEpoch(1);
        const Bytes obj = noise(4096, seed + 25);
        constexpr int kWrites = 200;
        int retries = 0, batch = 0;
        const double retry_s = p.timed("storage.fault_retry", kReps, [&] {
            ++batch;
            for (int i = 0; i < kWrites; ++i) {
                const std::string path = "ckpt/pfs/b" +
                                         std::to_string(batch) + "o" +
                                         std::to_string(i);
                st::withIoRetry(
                    st::kDefaultIoRetryLimit,
                    [&] { backend.write(path, obj.data(), obj.size()); },
                    [&](int) { ++retries; });
            }
        });
        p.metric("storage.fault_retry_us", retry_s / kWrites * 1e6, "us");
        const st::Blob got = st::fetch(backend, "ckpt/pfs/b1o0");
        p.check(retries == 2 * kWrites * kReps && got.size() == obj.size() &&
                    std::memcmp(got.data(), obj.data(), obj.size()) == 0,
                "transient fault window: expected 2 retries per write and "
                "the object intact");
    }
}

// --------------------------------------------------------------- simmpi

void
probeSimmpi(Probe &p)
{
    for (const int procs : {64, 512}) {
        const std::string tag = "p" + std::to_string(procs);
        std::vector<double> spin;
        for (int r = 0; r < kReps; ++r) {
            Runtime runtime;
            JobOptions opts;
            opts.nprocs = procs;
            const std::int64_t t0 = nowNs();
            runtime.run(opts, [](Proc &proc) { proc.barrier(); });
            const std::int64_t t1 = nowNs();
            p.out.trace.add("simmpi.spinup", t0, t1, p.parent, tag);
            spin.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
        p.metric("simmpi.spinup_ms." + tag, median(spin) * 1e3, "ms");

        // Rank 0 enters each allreduce first and leaves it last in the
        // cooperative schedule, so its window brackets every rank.
        constexpr int kWarm = 4, kIters = 20;
        const std::int64_t expect =
            static_cast<std::int64_t>(procs) * (procs - 1) / 2;
        std::vector<double> per_op;
        bool ok = true;
        for (int r = 0; r < kReps; ++r) {
            Runtime runtime;
            JobOptions opts;
            opts.nprocs = procs;
            std::int64_t t0 = 0, t1 = 0;
            runtime.run(opts, [&](Proc &proc) {
                for (int i = 0; i < kWarm + kIters; ++i) {
                    if (i == kWarm && proc.rank() == 0)
                        t0 = nowNs();
                    ok = ok && proc.allreduceInt(proc.rank()) == expect;
                }
                if (proc.rank() == 0)
                    t1 = nowNs();
            });
            p.out.trace.add("simmpi.allreduce", t0, t1, p.parent, tag);
            per_op.push_back(static_cast<double>(t1 - t0) * 1e-9 / kIters);
        }
        p.check(ok, "allreduce of rank ids != P(P-1)/2 at " + tag);
        p.metric("simmpi.allreduce_us." + tag, median(per_op) * 1e6, "us");
    }

    // Halo rounds at 512 ranks: (job with R rounds - job with none) / R.
    constexpr int kProcs = 512, kRounds = 20;
    constexpr std::size_t kHalo = 4096;
    bool ghosts_ok = true;
    const auto haloJob = [&](int rounds) {
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = kProcs;
        const std::int64_t t0 = nowNs();
        runtime.run(opts, [&](Proc &proc) {
            const int rank = proc.rank();
            const auto val = [](int r, int round, int side) {
                return static_cast<double>(r * 1000 + round * 2 + side);
            };
            std::vector<double> lo(kHalo / 8), hi(kHalo / 8), rlo(kHalo / 8),
                rhi(kHalo / 8);
            proc.barrier();
            for (int round = 0; round < rounds; ++round) {
                std::fill(lo.begin(), lo.end(), val(rank, round, 0));
                std::fill(hi.begin(), hi.end(), val(rank, round, 1));
                match::apps::exchangeHalo1d(proc, lo.data(), hi.data(),
                                            rlo.data(), rhi.data(), kHalo,
                                            kHalo);
                if (rank > 0)
                    ghosts_ok = ghosts_ok && rlo.front() == val(rank - 1, round, 1) &&
                                rlo.back() == val(rank - 1, round, 1);
                if (rank < kProcs - 1)
                    ghosts_ok = ghosts_ok && rhi.front() == val(rank + 1, round, 0) &&
                                rhi.back() == val(rank + 1, round, 0);
            }
            proc.barrier();
        });
        const std::int64_t t1 = nowNs();
        p.out.trace.add("simmpi.halo_job", t0, t1, p.parent,
                        "rounds=" + std::to_string(rounds));
        return static_cast<double>(t1 - t0) * 1e-9;
    };
    std::vector<double> with, without;
    for (int r = 0; r < kReps; ++r) {
        without.push_back(haloJob(0));
        with.push_back(haloJob(kRounds));
    }
    p.check(ghosts_ok, "halo ghosts differ from the neighbours' sent values");
    p.metric("simmpi.halo_us.p512",
             (median(with) - median(without)) / kRounds * 1e6, "us");
}

// ----------------------------------------------------------------- apps

void
probeApps(Probe &p, const std::string &sandbox)
{
    namespace apps = match::apps;
    for (const apps::AppSpec &spec : apps::registry()) {
        apps::AppParams params;
        params.input = apps::InputSize::Small;
        params.nprocs = kCkptRanks;
        const int iters = spec.loopIterations(params);
        params.ckptStride = iters + 1; // no checkpoint inside the loop
        std::vector<double> secs;
        for (int r = 0; r < 3; ++r) {
            match::ft::DesignRunConfig drc;
            drc.design = match::ft::Design::ReinitFti;
            drc.nprocs = kCkptRanks;
            drc.ftiConfig = ftiConfigFor(sandbox, "probe-app-" + spec.name, 1);
            const std::int64_t t0 = nowNs();
            match::ft::runDesign(drc, [&](Proc &proc,
                                          const match::fti::FtiConfig &cfg) {
                spec.main(proc, cfg, params);
            });
            const std::int64_t t1 = nowNs();
            p.out.trace.add("apps.main", t0, t1, p.parent, spec.name);
            secs.push_back(static_cast<double>(t1 - t0) * 1e-9 / iters);
        }
        p.metric("apps." + spec.name + ".iter_ms", median(secs) * 1e3, "ms");
    }
}

// ------------------------------------------------------------------- ft

void
probeFt(Probe &p, const std::string &sandbox)
{
    namespace ft = match::ft;
    // A fixed 512-rank BSP loop: compute, one allreduce, FTI L1 every
    // 10 iterations; the failure strikes rank 100 at iteration 15.
    constexpr int kProcs = 512, kIters = 30;
    for (const ft::Design design : ft::allDesigns) {
        const std::string name = ft::designName(design);
        // One pair per design: a 512-rank recovery costs seconds.
        double clean_s = 0.0, failed_s = 0.0;
        std::vector<double> clean_finals(kProcs), finals(kProcs);
        bool fired = true;
        for (const bool inject : {false, true}) {
            ft::DesignRunConfig drc;
            drc.design = design;
            drc.nprocs = kProcs;
            drc.ftiConfig = ftiConfigFor(sandbox, "probe-ft-" + name, 1);
            drc.injectFailure = inject;
            drc.failIteration = 15;
            drc.failRank = 100;
            std::vector<double> &out = inject ? finals : clean_finals;
            const std::int64_t t0 = nowNs();
            const ft::Breakdown bd = ft::runDesign(
                drc, [&](Proc &proc, const match::fti::FtiConfig &cfg) {
                    match::fti::Fti fti(proc, cfg);
                    int iter = 0;
                    double acc = proc.rank();
                    fti.protect(0, &iter, sizeof(iter));
                    fti.protect(1, &acc, sizeof(acc));
                    ft::CheckpointLoop loop(proc, fti, 10);
                    loop.run(&iter, kIters, [&](int i) {
                        proc.compute(1e6);
                        acc = 0.5 * acc + proc.allreduce(acc + i) * 1e-3;
                    });
                    fti.finalize();
                    out[proc.globalIndex()] = acc;
                });
            const std::int64_t t1 = nowNs();
            p.out.trace.add(inject ? "ft.run_failure" : "ft.run_clean", t0,
                            t1, p.parent, name);
            (inject ? failed_s : clean_s) =
                static_cast<double>(t1 - t0) * 1e-9;
            if (inject)
                fired = bd.failureFired;
        }
        p.check(fired, name + ": the injected failure did not fire");
        p.check(finals == clean_finals,
                name + ": final state after recovery differs from the "
                       "failure-free run");
        p.metric("ft.recover_ms." + name, (failed_s - clean_s) * 1e3, "ms");
    }
}

// ------------------------------------------------------------------ fti

void
probeFti(Probe &p, const std::string &sandbox, std::uint64_t seed)
{
    namespace fti = match::fti;
    const auto pattern = [seed](int rank) {
        return noise(kRegionBytes, seed + 100 + static_cast<unsigned>(rank));
    };
    // Each checkpoint epoch, bracketed by barriers, spans from the
    // first rank's entry to the last rank's exit.
    const auto epochSpan = [](const std::vector<std::int64_t> &in,
                              const std::vector<std::int64_t> &out) {
        return std::make_pair(*std::min_element(in.begin(), in.end()),
                              *std::max_element(out.begin(), out.end()));
    };
    for (int level = 1; level <= 4; ++level) {
        const std::string tag = "L" + std::to_string(level);
        const fti::FtiConfig cfg =
            ftiConfigFor(sandbox, "probe-ckpt-" + tag, level);
        constexpr int kEpochs = 1 + kReps; // the first one warms
        std::vector<std::vector<std::int64_t>> in(
            kEpochs, std::vector<std::int64_t>(kCkptRanks)),
            out = in;
        Runtime runtime;
        JobOptions opts;
        opts.nprocs = kCkptRanks;
        runtime.run(opts, [&](Proc &proc) {
            fti::Fti f(proc, cfg);
            Bytes region = pattern(proc.rank());
            f.protect(0, region.data(), region.size());
            for (int e = 0; e < kEpochs; ++e) {
                proc.barrier();
                in[e][proc.globalIndex()] = nowNs();
                f.checkpoint(e + 1);
                out[e][proc.globalIndex()] = nowNs();
            }
            f.finalize();
        });
        std::vector<double> secs;
        for (int e = 1; e < kEpochs; ++e) {
            const auto [t0, t1] = epochSpan(in[e], out[e]);
            p.out.trace.add("fti.checkpoint", t0, t1, p.parent, tag);
            secs.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
        p.metric("fti.ckpt_ms." + tag, median(secs) * 1e3, "ms");

        if (level != 1 && level != 4)
            continue;
        // Recover the newest epoch in fresh jobs on the same store.
        std::vector<double> rec;
        bool restored = true;
        for (int r = 0; r < kReps; ++r) {
            std::vector<std::int64_t> rin(kCkptRanks), rout(kCkptRanks);
            Runtime again;
            again.run(opts, [&](Proc &proc) {
                fti::Fti f(proc, cfg);
                Bytes region(kRegionBytes, 0);
                f.protect(0, region.data(), region.size());
                restored = restored && f.status() == kEpochs;
                proc.barrier();
                rin[proc.globalIndex()] = nowNs();
                f.recover();
                rout[proc.globalIndex()] = nowNs();
                restored = restored && region == pattern(proc.rank());
            });
            const auto [t0, t1] = epochSpan(rin, rout);
            p.out.trace.add("fti.recover", t0, t1, p.parent, tag);
            rec.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
        p.check(restored, "Fti::recover at " + tag +
                              " did not restore the written pattern");
        p.metric("fti.recover_ms." + tag, median(rec) * 1e3, "ms");
    }
}

} // anonymous namespace

const std::vector<std::string> &
probeGroups()
{
    static const std::vector<std::string> groups{
        "util", "storage", "fti", "simmpi", "apps", "ft"};
    return groups;
}

ProbeResult
runProbeGroup(const std::string &group, std::uint64_t seed,
              const std::string &sandbox)
{
    Probe p;
    p.parent = p.out.trace.add("probe." + group, nowNs(), 0);
    if (group == "util") {
        probeUtil(p, seed);
    } else if (group == "storage") {
        probeStorage(p, seed);
    } else if (group == "fti") {
        probeRs(p, seed);
        probeFti(p, sandbox, seed);
    } else if (group == "simmpi") {
        probeSimmpi(p);
    } else if (group == "apps") {
        probeApps(p, sandbox);
    } else if (group == "ft") {
        probeFt(p, sandbox);
    }
    p.out.trace.finish(p.parent, nowNs());
    return p.out;
}

std::string
encodeProbeResult(const ProbeResult &result)
{
    std::ostringstream out;
    out.precision(17);
    for (const LayerMetric &m : result.metrics)
        out << "M\t" << m.name << '\t' << m.value << '\t' << m.unit << '\n';
    for (const std::string &f : result.failures)
        out << "F\t" << f << '\n';
    for (const Span &s : result.trace.spans())
        out << "S\t" << s.name << '\t' << s.tags << '\t' << s.startNs << '\t'
            << s.endNs << '\t' << s.parent << '\n';
    return out.str();
}

ProbeResult
decodeProbeResult(const std::string &text)
{
    ProbeResult result;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        std::vector<std::string> f;
        std::istringstream fields(line);
        std::string field;
        while (std::getline(fields, field, '\t'))
            f.push_back(field);
        if (f.size() == 4 && f[0] == "M") {
            result.metrics.push_back(LayerMetric{f[1], std::stod(f[2]), f[3]});
        } else if (f.size() == 2 && f[0] == "F") {
            result.failures.push_back(f[1]);
        } else if (f.size() == 6 && f[0] == "S") {
            result.trace.add(f[1], std::stoll(f[3]), std::stoll(f[4]),
                             std::stoi(f[5]), f[2]);
        }
    }
    return result;
}

} // namespace simbench

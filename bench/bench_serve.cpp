/**
 * @file
 * Serving-throughput benchmark for the serving front door
 * (serve/server.hpp): N identical stats-style requests -- the
 * multiply/rescale/rotate/add/square chain of encrypted_stats --
 * submitted to a Server over a multi-device, multi-stream DeviceSet,
 * measured as end-to-end throughput (requests/s and homomorphic
 * ops/s) and per-request latency (p50/p99) as a function of the
 * submitter-thread count.
 *
 * The run is the plan-cache steady state: a warmup request captures
 * every plan, so measured requests replay them; what scales with
 * submitters is exactly the per-request host dispatch the plan cache
 * made cheap, spread over disjoint stream leases. Results are
 * bit-identical across submitter counts (proven by test_serve); this
 * bench measures only the schedule.
 *
 * A final "serve_bootstrap" row exercises the long-program path: a
 * refresh chain (input -> bootstrap -> square -> rescale) served
 * through a Server configured with a Bootstrapper, over its own
 * bootstrappable context. Each bootstrap replays the per-op plans of
 * its ops (DESIGN.md §1.10), so the row records the serving cost of
 * a long program dispatched entirely as plan replays.
 *
 * Writes a machine-readable summary to --json_out (default
 * BENCH_serve.json in the CWD). CI gates multi-submitter scaling
 * against the single-submitter row via
 * tools/check_launch_regression.py -- the ratio gate applies only on
 * machines with enough cores (reported in the "cores" field) for
 * extra submitters to be physically able to add wall-clock
 * throughput over the kernel compute one request already pipelines.
 * The serve_bootstrap row is exempt from the scaling gate (it is a
 * latency row, not a throughput sweep) but shares the
 * plan_cache_hits >= 1 floor: served bootstraps must replay.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ckks/bootstrap.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/graph.hpp"
#include "ckks/keygen.hpp"
#include "serve/server.hpp"

using namespace fideslib;
using namespace fideslib::ckks;
using namespace fideslib::serve;

namespace
{

u32 gDevices = 2;
u32 gStreams = 8; //!< total streams across all devices
u32 gRequests = 48;
std::vector<u32> gSubmitters = {1, 4};
double gTargetRps = 0; //!< >0: add an open-loop Poisson row
std::string gJsonOut = "BENCH_serve.json";

constexpr u32 kOpsPerRequest = 6; //!< statsProgram's homomorphic ops

/** The measured program: encrypted_stats' hot chain. */
Request
statsProgram(Ciphertext x, Ciphertext y)
{
    Request r;
    u32 a = r.input(std::move(x));
    u32 b = r.input(std::move(y));
    u32 m = r.multiply(a, b);
    r.rescale(m);
    u32 rot = r.rotate(m, 1);
    u32 s = r.add(rot, m);
    u32 sq = r.square(s);
    r.rescale(sq);
    return r;
}

struct RunResult
{
    u32 submitters;
    double targetRps; //!< 0 = closed loop
    double seconds;
    double p50Ms;
    double p99Ms;
    u64 planHits;
    double hostDispatchUs; //!< worker CPU us per homomorphic op
    double launchesPerOp;
    double kernelsPerOp;
};

u64
totalLaunches(const DeviceSet &devs)
{
    u64 n = 0;
    for (u32 d = 0; d < devs.numDevices(); ++d)
        n += devs.device(d).counters().launches;
    return n;
}

/**
 * One measured serving run. @p targetRps > 0 switches from
 * closed-loop (submit everything, then join) to an open-loop
 * Poisson arrival process at that rate -- exponential inter-arrival
 * gaps from a fixed seed, so p50/p99 measure latency under load
 * rather than under a synchronized burst.
 */
RunResult
runOnce(const Context &ctx, const KeyBundle &keys,
        const Ciphertext &x, const Ciphertext &y, u32 submitters,
        double targetRps)
{
    // Requests are pre-built so the measured region contains only
    // serving work (the clone traffic is client-side in the paper's
    // MLaaS picture).
    std::vector<Request> requests;
    requests.reserve(gRequests);
    for (u32 i = 0; i < gRequests; ++i)
        requests.push_back(statsProgram(x.clone(), y.clone()));
    ctx.devices().synchronize();
    const u64 hits0 = ctx.devices().planReplays();
    const u64 launches0 = totalLaunches(ctx.devices());
    const u64 kernels0 = ctx.devices().logicalKernels();

    Server::Options opt;
    opt.submitters = submitters;
    Server server(ctx, keys, opt);

    std::mt19937_64 rng(0xF1DE5u); // deterministic arrival schedule
    std::exponential_distribution<double> gap(
        targetRps > 0 ? targetRps : 1.0);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Handle> handles;
    handles.reserve(requests.size());
    auto next = t0;
    for (Request &r : requests) {
        if (targetRps > 0) {
            next += std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(gap(rng)));
            std::this_thread::sleep_until(next);
        }
        handles.push_back(server.submit(std::move(r)));
    }
    std::vector<double> latencies;
    latencies.reserve(handles.size());
    for (Handle &h : handles) {
        (void)h.get();
        latencies.push_back(h.latencyMs());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    const Server::Stats st = server.stats();
    ctx.devices().synchronize();

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
        std::size_t i = static_cast<std::size_t>(
            p * static_cast<double>(latencies.size() - 1));
        return latencies[i];
    };
    const double ops = static_cast<double>(st.executedOps);
    return {submitters,
            targetRps,
            seconds,
            pct(0.50),
            pct(0.99),
            ctx.devices().planReplays() - hits0,
            static_cast<double>(st.dispatchCpuNs) / 1e3 / ops,
            static_cast<double>(totalLaunches(ctx.devices()) -
                                launches0) /
                ops,
            static_cast<double>(ctx.devices().logicalKernels() -
                                kernels0) /
                ops};
}

//! serve_bootstrap row shape: one bootstrap plus the two follow-up
//! ops a refresh-then-compute client program actually runs.
constexpr u32 kBootRequests = 4;
constexpr u32 kBootSubmitters = 2;
constexpr u32 kBootOpsPerRequest = 3; //!< bootstrap, square, rescale

/**
 * The long-program serving row: bootstrap-bearing requests through a
 * Server with a Bootstrapper engine, on a dedicated bootstrappable
 * context (the stats rows' paper13 set has no level headroom for a
 * bootstrap pipeline). Writes the final row of the JSON array (no
 * trailing comma).
 */
void
writeBootstrapRow(std::FILE *f, u32 cores)
{
    Parameters p = Parameters::testBoot();
    p.numDevices = 2;
    p.streamsPerDevice = 2;
    Context ctx(p);
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({}, true);
    Evaluator eval(ctx, keys);

    BootstrapConfig cfg;
    cfg.slots = 32;
    cfg.levelBudgetC2S = 2;
    cfg.levelBudgetS2C = 2;
    Bootstrapper boot(eval, cfg);
    keygen.addRotationKeys(keys, boot.requiredRotations());

    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);
    std::vector<std::complex<double>> zs(cfg.slots);
    for (u32 i = 0; i < cfg.slots; ++i)
        zs[i] = {0.21 * std::cos(0.37 * i), 0.21 * std::sin(0.91 * i)};
    Ciphertext x =
        encr.encrypt(enc.encode(zs, cfg.slots, ctx.maxLevel()));

    auto refreshProgram = [&] {
        Request r;
        u32 a = r.input(x.clone());
        u32 fresh = r.bootstrap(a);
        u32 sq = r.square(fresh);
        r.rescale(sq);
        return r;
    };

    ctx.setLimbBatch(2);
    ctx.devices().setLaunchOverheadNs(2000);

    Server::Options opt;
    opt.submitters = kBootSubmitters;
    opt.bootstrapper = &boot;

    // Warm: the first bootstrap captures the per-op plans; the
    // measured requests replay them.
    {
        Server warm(ctx, keys, opt);
        warm.submit(refreshProgram()).get();
    }
    ctx.devices().synchronize();
    const u64 hits0 = ctx.devices().planReplays();

    std::vector<Request> requests;
    requests.reserve(kBootRequests);
    for (u32 i = 0; i < kBootRequests; ++i)
        requests.push_back(refreshProgram());

    Server server(ctx, keys, opt);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<Handle> handles;
    handles.reserve(requests.size());
    for (Request &r : requests)
        handles.push_back(server.submit(std::move(r)));
    std::vector<double> latencies;
    latencies.reserve(handles.size());
    for (Handle &h : handles) {
        (void)h.get();
        latencies.push_back(h.latencyMs());
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double q) {
        std::size_t i = static_cast<std::size_t>(
            q * static_cast<double>(latencies.size() - 1));
        return latencies[i];
    };
    const u64 planHits = ctx.devices().planReplays() - hits0;
    const double reqPerSec =
        static_cast<double>(kBootRequests) / seconds;
    const kernels::PlanCacheStats ps = ctx.planStats();

    std::printf("  bootstrap (%u submitters)  %6.2f req/s  "
                "p50 %7.1f ms  p99 %7.1f ms  plan_hits %llu\n",
                kBootSubmitters, reqPerSec, pct(0.50), pct(0.99),
                static_cast<unsigned long long>(planHits));
    std::fprintf(
        f,
        "  {\"name\": \"serve_bootstrap\", \"submitters\": %u, "
        "\"requests\": %u, \"ops_per_request\": %u, "
        "\"requests_per_sec\": %.4f, \"ops_per_sec\": %.4f, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"plan_cache_hits\": %llu, \"plan_keys\": %zu, "
        "\"plan_arena_mb\": %.2f, \"cores\": %u}\n",
        kBootSubmitters, kBootRequests, kBootOpsPerRequest, reqPerSec,
        reqPerSec * kBootOpsPerRequest, pct(0.50), pct(0.99),
        static_cast<unsigned long long>(planHits), ps.keys.size(),
        static_cast<double>(ps.reservedBytes) / 1e6, cores);
}

void
parseFlags(int argc, char **argv)
{
    auto value = [&](int &i) -> const char * {
        const char *arg = argv[i];
        const char *eq = std::strchr(arg, '=');
        if (eq)
            return eq + 1;
        if (i + 1 < argc)
            return argv[++i];
        fatal("%.24s requires a value", arg);
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--devices", 9) == 0) {
            gDevices = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--streams", 9) == 0) {
            gStreams = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--requests", 10) == 0) {
            gRequests = static_cast<u32>(std::atoi(value(i)));
        } else if (std::strncmp(a, "--submitters", 12) == 0) {
            gSubmitters.clear();
            std::string list = value(i);
            for (std::size_t p = 0; p < list.size();) {
                std::size_t c = list.find(',', p);
                if (c == std::string::npos)
                    c = list.size();
                gSubmitters.push_back(static_cast<u32>(
                    std::atoi(list.substr(p, c - p).c_str())));
                p = c + 1;
            }
        } else if (std::strncmp(a, "--target_rps", 12) == 0) {
            gTargetRps = std::atof(value(i));
        } else if (std::strncmp(a, "--json_out", 10) == 0) {
            gJsonOut = value(i);
        } else {
            fatal("unknown flag %.40s", a);
        }
    }
    if (gDevices < 1 || gStreams < gDevices || gRequests < 1 ||
        gSubmitters.empty())
        fatal("bad flag values");
}

} // namespace

int
main(int argc, char **argv)
{
    parseFlags(argc, argv);

    Parameters p = Parameters::paper13();
    p.numDevices = gDevices;
    p.streamsPerDevice = std::max(1u, gStreams / gDevices);
    Context ctx(p);
    KeyGen keygen(ctx);
    KeyBundle keys = keygen.makeBundle({1});
    Encoder enc(ctx);
    Encryptor encr(ctx, keys.pk);

    const u32 slots = static_cast<u32>(ctx.degree() / 2);
    std::vector<std::complex<double>> xs(slots), ys(slots);
    for (u32 i = 0; i < slots; ++i) {
        xs[i] = {std::cos(0.37 * i), std::sin(0.91 * i)};
        ys[i] = {std::sin(0.53 * i), std::cos(0.11 * i)};
    }
    auto x = encr.encrypt(enc.encode(xs, slots, ctx.maxLevel()));
    auto y = encr.encrypt(enc.encode(ys, slots, ctx.maxLevel()));

    // The launch-bound regime of the paper's Figure 7, like
    // bench_limb_batch: per-launch overhead makes host dispatch the
    // resource the submitter pool multiplies.
    ctx.setLimbBatch(4);
    ctx.devices().setLaunchOverheadNs(2000);

    // Warm the plan cache: the measured loops replay.
    {
        Server warm(ctx, keys);
        warm.submit(statsProgram(x.clone(), y.clone())).get();
    }

    const u32 cores = std::max(1u, std::thread::hardware_concurrency());
    std::printf("bench_serve: %u device(s) x %u stream(s)/device, "
                "%u requests x %u ops, %u core(s)\n",
                gDevices, ctx.devices().streamsPerDevice(), gRequests,
                kOpsPerRequest, cores);

    // Row schedule: closed loop per submitter count, then one
    // open-loop Poisson row at --target_rps when requested.
    std::vector<RunResult> rows;
    for (u32 s : gSubmitters)
        rows.push_back(runOnce(ctx, keys, x, y, s, 0));
    if (gTargetRps > 0) {
        const u32 s = *std::max_element(gSubmitters.begin(),
                                        gSubmitters.end());
        rows.push_back(runOnce(ctx, keys, x, y, s, gTargetRps));
    }

    kernels::PlanCacheStats ps = ctx.planStats();
    std::FILE *f = std::fopen(gJsonOut.c_str(), "w");
    if (!f)
        fatal("cannot write %.200s", gJsonOut.c_str());
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RunResult &r = rows[i];
        const double reqPerSec =
            static_cast<double>(gRequests) / r.seconds;
        std::string name = "serve_s" + std::to_string(r.submitters);
        if (r.targetRps > 0)
            name += "_open";
        std::printf("  %-18s  %8.1f req/s  %8.1f ops/s  "
                    "p50 %6.2f ms  p99 %6.2f ms  dispatch %6.1f "
                    "us/op\n",
                    name.c_str(), reqPerSec,
                    reqPerSec * kOpsPerRequest, r.p50Ms, r.p99Ms,
                    r.hostDispatchUs);
        std::fprintf(
            f,
            "  {\"name\": \"%s\", \"submitters\": %u, "
            "\"target_rps\": %.1f, "
            "\"requests\": %u, \"ops_per_request\": %u, "
            "\"requests_per_sec\": %.2f, \"ops_per_sec\": %.2f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"host_dispatch_us\": %.3f, \"launches_per_op\": %.3f, "
            "\"kernels_per_op\": %.3f, "
            "\"plan_cache_hits\": %llu, \"plan_keys\": %zu, "
            "\"plan_arena_mb\": %.2f, \"cores\": %u}%s\n",
            name.c_str(), r.submitters, r.targetRps,
            gRequests, kOpsPerRequest, reqPerSec,
            reqPerSec * kOpsPerRequest, r.p50Ms, r.p99Ms,
            r.hostDispatchUs, r.launchesPerOp, r.kernelsPerOp,
            static_cast<unsigned long long>(r.planHits),
            ps.keys.size(),
            static_cast<double>(ps.reservedBytes) / 1e6, cores, ",");
    }
    writeBootstrapRow(f, cores);
    std::fprintf(f, "]\n");
    std::fclose(f);
    return 0;
}

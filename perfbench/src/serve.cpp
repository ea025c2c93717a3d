/**
 * @file
 * Workload `serve`: open-loop Poisson arrivals from 8 tenants through
 * serve::Router at its default options (2 shards, 1 submitter per
 * shard, batching off), paper13 with 1 device x 2 streams per shard.
 * The mix is 50% `stats` (multiply, rescale, rotate, add, square,
 * rescale), 25% `mean` (8 rotate-and-add steps, scalar multiply,
 * rescale) and 25% `affine` (scalar multiply and rescale, no key
 * switch). Cheap `affine` requests queued behind heavy ones expose
 * head-of-line waiting; logN=13 keeps the kernels from swamping the
 * serving layers (queue, shard placement, wire path).
 *
 * A request is timed from its scheduled send time through upload ->
 * submit -> get -> download to host. One generator thread sends; one
 * receiver per shard collects in submission order, which is also the
 * shard's completion order (one FIFO submitter per shard).
 */

#include <condition_variable>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "ckks/adapter.hpp"
#include "ckks/serial.hpp"
#include "harness.hpp"
#include "serve/router.hpp"

namespace perfbench
{

namespace
{

using namespace fideslib::ckks;
using fideslib::serve::Handle;
using fideslib::serve::Request;
using fideslib::serve::Router;

constexpr u64 kProbeSeed = 0x53455256; //!< fixed: result_digest inputs
constexpr u32 kTenants = 8;
constexpr u32 kSets = 4;           //!< seeded input sets per tenant
constexpr double kAmp = 0.7;
constexpr double kMaxErr = 1e-3;
constexpr double kNominalRps = 10;
//! Fixed goodput grid (req/s), each point measured for kGridSeconds.
constexpr double kGrid[] = {5, 10, 15, 20, 25, 30, 40, 50, 60, 80};
constexpr double kGridSeconds = 4;
//! The goodput tail limit (metrics.py GOODPUT_TAIL_LIMIT_MS): a grid
//! point whose median already exceeds it ends the ascent early.
constexpr double kTailLimitMs = 250;
constexpr u32 kServiceReps = 10; //!< idle-system runs per program
constexpr u32 kRotations = 200;        //!< rotate_ms samples per run
constexpr u32 kMeanSteps = 8; //!< rotate-and-add by 1, 2, ..., 128

enum class Program : u32 { Stats, Mean, Affine };
constexpr const char *kProgramNames[] = {"stats", "mean", "affine"};

Parameters
params()
{
    Parameters p = Parameters::paper13();
    p.numDevices = 1;
    p.streamsPerDevice = 2;
    return p;
}

/**
 * The client's Context: keys, encryption, reference evaluation, output
 * checks and the rotation probe. It runs on the 2 devices x 2 streams
 * of the other workloads: at the shards' 1 x 2, a lone rotation
 * alternates between two speeds (8 and 14 ms on a 4-vCPU VM) for
 * seconds at a time, as the OS places the two stream threads.
 */
Parameters
clientParams()
{
    Parameters p = params();
    p.numDevices = 2;
    return p;
}

struct InputSet
{
    Slots x, y;
    std::string wx, wy; //!< wire bytes of the encrypted x, y
};

struct Tenant
{
    u64 id = 0;
    std::unique_ptr<KeyGen> kg;
    std::unique_ptr<KeyBundle> keys;
    std::unique_ptr<Evaluator> eval; //!< direct reference evaluation
    std::vector<InputSet> sets;
    //! (set, program) -> wire hash of the direct evaluation
    std::map<std::pair<u32, u32>, u64> direct;
};

/** The op program of @p p over already-materialized inputs. */
Request
program(Program p, Ciphertext x, std::optional<Ciphertext> y)
{
    Request r;
    const u32 a = r.input(std::move(x));
    switch (p) {
    case Program::Stats: {
        const u32 b = r.input(std::move(*y));
        const u32 m = r.multiply(a, b);
        r.rescale(m);
        const u32 s = r.add(r.rotate(m, 1), m);
        const u32 sq = r.square(s);
        r.rescale(sq);
        break;
    }
    case Program::Mean: {
        u32 cur = a;
        for (u32 k = 0; k < kMeanSteps; ++k)
            cur = r.add(cur, r.rotate(cur, i64{1} << k));
        r.multiplyScalar(cur, 1.0 / (1u << kMeanSteps));
        r.rescale(cur);
        break;
    }
    case Program::Affine:
        r.multiplyScalar(a, 0.75);
        r.rescale(a);
        break;
    }
    return r;
}

/** Plaintext expectation of program @p p. */
Slots
expected(Program p, const InputSet &in)
{
    const std::size_t n = in.x.size();
    Slots out(n);
    if (p == Program::Stats) {
        for (std::size_t i = 0; i < n; ++i) {
            const auto s = in.x[i] * in.y[i]
                         + in.x[(i + 1) % n] * in.y[(i + 1) % n];
            out[i] = s * s;
        }
    } else if (p == Program::Mean) {
        const std::size_t w = std::size_t{1} << kMeanSteps;
        for (std::size_t i = 0; i < n; ++i) {
            std::complex<double> s = 0;
            for (std::size_t j = 0; j < w; ++j)
                s += in.x[(i + j) % n];
            out[i] = s / static_cast<double>(w);
        }
    } else {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = 0.75 * in.x[i];
    }
    return out;
}

/** Direct Evaluator execution of a request: the bit-exact reference. */
Ciphertext
evaluateDirect(const Evaluator &ev, const Request &req)
{
    using Kind = fideslib::serve::Op::Kind;
    std::vector<Ciphertext> regs;
    for (const Ciphertext &c : req.inputs())
        regs.push_back(c.clone());
    for (const fideslib::serve::Op &op : req.ops()) {
        switch (op.kind) {
        case Kind::Add:
            regs.push_back(ev.add(regs[op.a], regs[op.b]));
            break;
        case Kind::Multiply:
            regs.push_back(ev.multiply(regs[op.a], regs[op.b]));
            break;
        case Kind::Square:
            regs.push_back(ev.square(regs[op.a]));
            break;
        case Kind::Rotate:
            regs.push_back(ev.rotate(regs[op.a], op.rot));
            break;
        case Kind::Rescale:
            ev.rescaleInPlace(regs[op.a]);
            break;
        case Kind::MultiplyScalar:
            ev.multiplyScalarInPlace(regs[op.a], op.scalar);
            break;
        default:
            throw CheckFailure("unexpected op in a served program");
        }
    }
    return std::move(regs[req.outputRegister()]);
}

struct Setup
{
    std::unique_ptr<Context> client;
    std::vector<Tenant> tenants;
    std::unique_ptr<Router> router;
    std::string digest;
    //! Latency of each program's first request on a cold shard.
    double warmupMs[3] = {0, 0, 0};

    Ciphertext
    fromWire(const Context &ctx, const std::string &bytes) const
    {
        std::istringstream is(bytes);
        return serial::rebind(ctx, serial::readCiphertext(is));
    }

    InputSet
    encrypt(const Tenant &t, Rng &rng) const
    {
        Encoder enc(*client);
        Encryptor encr(*client, t.keys->pk);
        const u32 n = client->degree() / 2;
        InputSet s{rng.slots(n, kAmp), rng.slots(n, kAmp), {}, {}};
        s.wx = wireBytes(*client,
                         encr.encrypt(enc.encode(s.x, n, client->maxLevel())));
        s.wy = wireBytes(*client,
                         encr.encrypt(enc.encode(s.y, n, client->maxLevel())));
        return s;
    }

    /** Hash of the direct evaluation of (tenant, set, program). */
    u64
    directHash(Tenant &t, u32 set, Program p) const
    {
        auto key = std::make_pair(set, static_cast<u32>(p));
        auto it = t.direct.find(key);
        if (it == t.direct.end()) {
            const InputSet &in = t.sets[set];
            Request r = program(p, fromWire(*client, in.wx),
                                fromWire(*client, in.wy));
            const Ciphertext out = evaluateDirect(*t.eval, r);
            it = t.direct.emplace(key, fnv1a(wireBytes(*client, out))).first;
        }
        return it->second;
    }
};

/** One scheduled request and, once received, its outcome. */
struct Arrival
{
    double dueUs = 0;
    u32 tenant = 0; //!< index into Setup::tenants
    u32 set = 0;
    Program prog = Program::Stats;

    // Filled by the send and receive paths.
    std::optional<Handle> handle;
    u32 shard = 0;
    u64 joins0 = 0;
    int root = -1;
    double doneUs = 0;
    std::string bytes;
    std::string error;
    double uploadMs = 0, submitUs = 0, downloadMs = 0;
};

/** Upload and submit (generator thread). */
void
send(Setup &s, Arrival &a, Tracer &tr)
{
    Tenant &t = s.tenants[a.tenant];
    const InputSet &in = t.sets[a.set];
    a.root = tr.beginAt("bench.request", a.dueUs, -1, a.tenant + 1);
    a.shard = s.router->shardOf(t.id);
    a.joins0 = s.router->shardContext(a.shard).devices().hostJoins();
    double t0 = nowUs();
    std::optional<Request> req;
    {
        Scope sp(tr, "ckks.serial.upload", a.root);
        auto up = [&](const std::string &w) {
            std::istringstream is(w);
            return s.router->upload(t.id, serial::readCiphertext(is));
        };
        Ciphertext x = up(in.wx);
        std::optional<Ciphertext> y;
        if (a.prog == Program::Stats)
            y.emplace(up(in.wy));
        req.emplace(program(a.prog, std::move(x), std::move(y)));
    }
    double t1 = nowUs();
    {
        Scope sp(tr, "serve.router.submit", a.root);
        a.handle.emplace(s.router->submit(t.id, std::move(*req)));
    }
    a.uploadMs = (t1 - t0) / 1e3;
    a.submitUs = nowUs() - t1;
}

/** Get and download (receiver thread). */
void
receive(Setup &s, Arrival &a, Tracer &tr)
{
    const Context &ctx = s.router->shardContext(a.shard);
    try {
        std::optional<Ciphertext> ct;
        {
            Scope sp(tr, "serve.server.get", a.root);
            ct.emplace(a.handle->get());
        }
        const double t0 = nowUs();
        {
            Scope sp(tr, "ckks.serial.download", a.root);
            a.bytes = wireBytes(ctx, *ct);
        }
        a.doneUs = nowUs();
        a.downloadMs = (a.doneUs - t0) / 1e3;
        if (ctx.devices().hostJoins() == a.joins0)
            throw CheckFailure("request ended without a host join");
    } catch (const std::exception &e) {
        a.error = e.what();
    }
    a.handle.reset();
    tr.end(a.root);
}

/** Decrypt-and-compare plus the bit-exact direct-evaluation check. */
void
verify(Setup &s, const Arrival &a, Record &rec)
{
    if (!a.error.empty())
        throw CheckFailure(a.error);
    Tenant &t = s.tenants[a.tenant];
    if (fnv1a(a.bytes) != s.directHash(t, a.set, a.prog))
        throw CheckFailure(std::string("served ") + kProgramNames[
                               static_cast<u32>(a.prog)]
                           + " differs from direct evaluation");
    const Ciphertext ct = s.fromWire(*s.client, a.bytes);
    const double err =
        maxError(decryptSlots(*s.client, *t.keys, *t.kg, ct),
                 expected(a.prog, t.sets[a.set]));
    if (!(err < kMaxErr))
        throw CheckFailure("served output error " + std::to_string(err));
    rec.add("precision_bits", precisionBits(err));
}

/** Fisher-Yates shuffle driven by the benchmark's generator. */
template <class T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Seeded open-loop schedule of rate x seconds requests with Poisson
 * gaps. Tenant and program picks are stratified: every block of
 * kTenants requests holds each tenant once and the exact 50/25/25
 * mix, in seeded order, so a run's shard load and program mix do not
 * drift with the seed (only the order and the gaps do).
 */
std::vector<Arrival>
schedule(Rng &rng, double rate, double seconds, double startUs)
{
    const std::size_t n = static_cast<std::size_t>(rate * seconds + 0.5);
    std::vector<Arrival> out(n);
    std::vector<u32> tenants(kTenants);
    std::vector<Program> mix;
    for (u32 i = 0; i < kTenants; ++i) {
        tenants[i] = i;
        mix.push_back(i % 4 < 2 ? Program::Stats
                      : i % 4 == 2 ? Program::Mean : Program::Affine);
    }
    double due = startUs;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % kTenants == 0) {
            shuffle(tenants, rng);
            shuffle(mix, rng);
        }
        due += rng.exponential(rate) * 1e6;
        out[i].dueUs = due;
        out[i].tenant = tenants[i % kTenants];
        out[i].prog = mix[i % kTenants];
        out[i].set = static_cast<u32>(rng.below(kSets));
    }
    return out;
}

/**
 * One receiver thread per shard, fed arrival indices in submission
 * order. The destructor ends every stream and joins, on exception
 * paths too.
 */
class Receivers
{
  public:
    Receivers(Setup &s, std::vector<Arrival> &arr, Tracer &tr)
        : inbox_(s.router->numShards())
    {
        for (Inbox &in : inbox_) {
            threads_.emplace_back([&s, &arr, &tr, &in] {
                for (long i; (i = in.pop()) >= 0;)
                    receive(s, arr[i], tr);
            });
        }
    }
    ~Receivers()
    {
        for (Inbox &in : inbox_)
            in.push(-1);
        for (std::thread &t : threads_)
            t.join();
    }
    Receivers(const Receivers &) = delete;
    Receivers &operator=(const Receivers &) = delete;

    void push(u32 shard, long i) { inbox_[shard].push(i); }

  private:
    /** Blocking FIFO of arrival indices (-1 ends the stream). */
    struct Inbox
    {
        std::mutex m;
        std::condition_variable cv;
        std::deque<long> q;

        void
        push(long v)
        {
            {
                std::lock_guard<std::mutex> g(m);
                q.push_back(v);
            }
            cv.notify_one();
        }
        long
        pop()
        {
            std::unique_lock<std::mutex> g(m);
            cv.wait(g, [this] { return !q.empty(); });
            const long v = q.front();
            q.pop_front();
            return v;
        }
    };

    std::vector<Inbox> inbox_;
    std::vector<std::thread> threads_;
};

/**
 * The generator: sends every arrival at its due time and hands it to
 * its shard's receiver; returns once all were received. With
 * @p layers, also samples generator lateness and returns the deepest
 * shard queue seen at a send.
 */
double
sendAll(Setup &s, std::vector<Arrival> &arr, Tracer &tr, Record *layers)
{
    Receivers receivers(s, arr, tr);
    double queueMax = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
        sleepUntilUs(arr[i].dueUs);
        if (layers)
            layers->add("bench.gen.late_ms", (nowUs() - arr[i].dueUs) / 1e3);
        try {
            send(s, arr[i], tr);
            receivers.push(arr[i].shard, static_cast<long>(i));
        } catch (const std::exception &e) {
            arr[i].error = e.what();
        }
        if (layers)
            for (const auto &sh : s.router->stats().shards)
                queueMax = std::max(queueMax,
                                    static_cast<double>(sh.serve.queued));
    }
    return queueMax;
}

/**
 * Runs one open-loop window at @p rate and verifies every output.
 * Latencies (ms, in send order) go to series `<pfx>latency_ms` and
 * `<pfx>lat_ms.<program>`; failures count toward the record.
 */
void
openLoop(Setup &s, Rng &rng, double rate, double seconds, Tracer &tr,
         Record &rec, const std::string &pfx, Record *layers)
{
    std::vector<Arrival> arr = schedule(rng, rate, seconds, nowUs() + 2e4);
    const double queueMax = sendAll(s, arr, tr, layers);
    if (layers) {
        layers->values["serve.server.queue_depth_max"] = queueMax;
        for (const Arrival &a : arr) {
            layers->add("ckks.serial.upload_ms", a.uploadMs);
            layers->add("serve.router.submit_us", a.submitUs);
            layers->add("ckks.serial.download_ms", a.downloadMs);
        }
    }

    for (const Arrival &a : arr) {
        ++rec.attempted;
        try {
            verify(s, a, rec);
            const double ms = (a.doneUs - a.dueUs) / 1e3;
            rec.add(pfx + "latency_ms", ms);
            rec.add(pfx + "lat_ms." + kProgramNames[static_cast<u32>(a.prog)],
                    ms);
        } catch (const std::exception &e) {
            rec.fail(e.what());
        }
    }
}

std::unique_ptr<Setup>
makeSetup()
{
    auto s = std::make_unique<Setup>();
    s->client = std::make_unique<Context>(clientParams());
    s->router = std::make_unique<Router>(params(), Router::Options{});
    std::vector<i64> rots;
    for (u32 k = 0; k < kMeanSteps; ++k)
        rots.push_back(i64{1} << k);
    Rng probe(kProbeSeed);
    for (u32 i = 0; i < kTenants; ++i) {
        Tenant t;
        t.id = i + 1;
        t.kg = std::make_unique<KeyGen>(*s->client);
        t.keys = std::make_unique<KeyBundle>(t.kg->makeBundle(rots));
        t.eval = std::make_unique<Evaluator>(*s->client, *t.keys);
        s->router->registerTenant(t.id,
                                  adapter::toHost(*s->client, *t.keys));
        t.sets.push_back(s->encrypt(t, probe));
        s->tenants.push_back(std::move(t));
    }
    // Warm-up on the fixed probe inputs: every tenant runs every
    // program once (capturing each shard's plans); the served bytes
    // are the seed-independent result_digest.
    Tracer off(false);
    u64 h = 0xcbf29ce484222325ull;
    for (u32 i = 0; i < kTenants; ++i) {
        for (u32 p = 0; p < 3; ++p) {
            Arrival a;
            a.tenant = i;
            a.prog = static_cast<Program>(p);
            a.dueUs = nowUs();
            send(*s, a, off);
            receive(*s, a, off);
            if (!a.error.empty())
                throw std::runtime_error("warm-up failed: " + a.error);
            if (i == 0)
                s->warmupMs[p] = (a.doneUs - a.dueUs) / 1e3;
            h = fnv1a(a.bytes, h);
        }
    }
    s->digest = hex64(h);
    return s;
}

/** Per-shard Router counters at one instant. */
std::vector<fideslib::serve::Server::Stats>
shardStats(const Router &r)
{
    std::vector<fideslib::serve::Server::Stats> out;
    for (const auto &sh : r.stats().shards)
        out.push_back(sh.serve);
    return out;
}

void
recordRouterDeltas(const std::vector<fideslib::serve::Server::Stats> &a,
                   const std::vector<fideslib::serve::Server::Stats> &b,
                   Record &rec)
{
    double lo = 1e300, hi = 0, batched = 0, solo = 0, cpu = 0, ops = 0,
           failed = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double done = static_cast<double>(b[i].completed - a[i].completed);
        lo = std::min(lo, done);
        hi = std::max(hi, done);
        batched += static_cast<double>(b[i].batchedRequests - a[i].batchedRequests);
        solo += static_cast<double>(b[i].soloRequests - a[i].soloRequests);
        cpu += static_cast<double>(b[i].dispatchCpuNs - a[i].dispatchCpuNs);
        ops += static_cast<double>(b[i].executedOps - a[i].executedOps);
        failed += static_cast<double>(b[i].failed - a[i].failed);
    }
    rec.values["serve.router.shard_skew"] = lo > 0 ? hi / lo : hi;
    rec.values["serve.server.batched_share"] =
        batched + solo > 0 ? batched / (batched + solo) : 0;
    rec.values["serve.server.dispatch_us_per_op"] = ops > 0 ? cpu / ops / 1e3 : 0;
    rec.values["serve.server.failed"] = failed;
}

} // namespace

void
runServe(const RunOptions &opt, Record &rec, Tracer &tr)
{
    const auto s = repeatSetup(opt, rec, makeSetup);
    rec.digest = s->digest;
    rec.info["params"] = "paper13 [13,5,36,2]";
    rec.info["topology"] = "Router defaults: 2 shards x (1 device x 2 "
                           "streams), 1 submitter per shard, batching off; "
                           "client 2 devices x 2 streams";
    rec.info["nominal_rps"] = std::to_string(kNominalRps);
    for (u32 p = 0; p < 3; ++p)
        rec.values[std::string("ckks.graph.warmup_ms.") + kProgramNames[p]] =
            s->warmupMs[p];

    Rng rng(opt.seed);
    for (Tenant &t : s->tenants) {
        t.sets.clear(); // the probe set served its purpose
        t.direct.clear();
        for (u32 k = 0; k < kSets; ++k)
            t.sets.push_back(s->encrypt(t, rng));
    }
    std::vector<const Context *> shards;
    std::vector<DeviceSet *> set;
    for (u32 sh = 0; sh < s->router->numShards(); ++sh) {
        shards.push_back(&s->router->shardContext(sh));
        set.push_back(&shards.back()->devices());
    }

    Tracer off(false);
    if (!opt.trace) {
        openLoop(*s, rng, kNominalRps, opt.seconds, off, rec, "", nullptr);
    } else {
        openLoop(*s, rng, kNominalRps, opt.seconds / 2, off, rec,
                 "untraced.", nullptr);
        const auto st0 = shardStats(*s->router);
        const OpCounters c0 = OpCounters::read(set);
        const u64 hits0 = planHits(shards);
        const u64 done0 = rec.attempted;
        openLoop(*s, rng, kNominalRps, opt.seconds / 2, tr, rec, "", &rec);
        const u64 ops = rec.attempted - done0;
        OpCounters::read(set).since(c0).record(rec, ops);
        recordRouterDeltas(st0, shardStats(*s->router), rec);
        recordPlanLayer(shards, hits0, ops, rec);

        // Service time: each program alone on an idle Router.
        for (u32 p = 0; p < 3; ++p) {
            for (u32 i = 0; i < kServiceReps; ++i) {
                Arrival a;
                a.tenant = i % kTenants;
                a.set = i % kSets;
                a.prog = static_cast<Program>(p);
                a.dueUs = nowUs();
                ++rec.attempted;
                try {
                    send(*s, a, off);
                    receive(*s, a, off);
                    verify(*s, a, rec);
                    rec.add(std::string("serve.server.service_ms.")
                                + kProgramNames[p],
                            (a.doneUs - a.dueUs) / 1e3);
                } catch (const std::exception &e) {
                    rec.fail(e.what());
                }
            }
        }

        // Goodput grid, ascending: metrics.py applies the tail limit
        // and the backlog test to every point measured here.
        for (double rate : kGrid) {
            const std::string pfx = "grid." + std::to_string(
                                                  static_cast<int>(rate)) + ".";
            const u64 failed0 = rec.failed;
            openLoop(*s, rng, rate, kGridSeconds, off, rec, pfx, nullptr);
            rec.values[pfx + "failed"] =
                static_cast<double>(rec.failed - failed0);
            s->router->drain();
            if (median(rec.series[pfx + "latency_ms"]) > kTailLimitMs)
                break;
        }
    }

    // Rotation by one slot at the top level of the serving parameter
    // set, on the client's Context.
    Tenant &t = s->tenants.front();
    const Ciphertext top = s->fromWire(*s->client, t.sets[0].wx);
    sampleRotations(*t.eval, *t.kg, top, t.sets[0].x, kMaxErr, kRotations,
                    rec);
    if (opt.trace) {
        const Ciphertext other = s->fromWire(*s->client, t.sets[0].wy);
        probeKernelLayers(*t.eval, top, other, rec, tr, false);
    }
}

} // namespace perfbench

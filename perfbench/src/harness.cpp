#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "ckks/adapter.hpp"
#include "ckks/basechange.hpp"
#include "ckks/graph.hpp"
#include "ckks/kernels.hpp"
#include "ckks/serial.hpp"
#include "core/ntt.hpp"

namespace perfbench
{

namespace
{

const auto kEpoch = std::chrono::steady_clock::now();

u32
threadTag()
{
    static std::atomic<u32> next{1};
    thread_local u32 tag = next.fetch_add(1);
    return tag;
}

std::string
escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

u64
joinsOf(const std::vector<DeviceSet *> &devs)
{
    u64 n = 0;
    for (DeviceSet *d : devs)
        n += d->hostJoins();
    return n;
}

} // namespace

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

void
sleepUntilUs(double us)
{
    std::this_thread::sleep_until(
        kEpoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double, std::micro>(us)));
}

double
threadCpuUs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6
         + static_cast<double>(ts.tv_nsec) / 1e3;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    return 0;
}

u64
Rng::next()
{
    u64 z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::exponential(double rate)
{
    return -std::log1p(-uniform()) / rate;
}

Slots
Rng::slots(std::size_t n, double amp)
{
    Slots z(n);
    for (auto &v : z)
        v = {amp * (2 * uniform() - 1), amp * (2 * uniform() - 1)};
    return z;
}

int
Tracer::begin(const std::string &name, int parent, u64 req)
{
    return on_ ? beginAt(name, nowUs(), parent, req) : -1;
}

int
Tracer::beginAt(const std::string &name, double startUs, int parent,
                u64 req)
{
    if (!on_)
        return -1;
    Span s{name, startUs, startUs, parent, req, threadTag()};
    std::lock_guard<std::mutex> g(m_);
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int idx)
{
    if (idx < 0)
        return;
    const double t = nowUs();
    std::lock_guard<std::mutex> g(m_);
    spans_[idx].endUs = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(m_);
    return spans_;
}

JoinCheck::JoinCheck(const std::vector<DeviceSet *> &devs)
    : devs_(devs), before_(total())
{}

u64
JoinCheck::total() const
{
    return joinsOf(devs_);
}

void
JoinCheck::done() const
{
    if (total() == before_)
        throw CheckFailure("sample ended without a host join");
}

u64
fnv1a(const std::string &bytes, u64 h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(u64 v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
wireBytes(const ckks::Context &ctx, const ckks::Ciphertext &ct)
{
    std::ostringstream os;
    ckks::serial::write(os, ckks::adapter::toHost(ctx, ct));
    return os.str();
}

u64
limbDigest(const ckks::Ciphertext &ct, u64 h)
{
    ct.syncHost();
    for (const ckks::RNSPoly *p : {&ct.c0, &ct.c1}) {
        h = (h ^ p->numLimbs()) * 0x100000001b3ull;
        for (std::size_t i = 0; i < p->numLimbs(); ++i) {
            const u64 *d = p->limb(i).data();
            for (std::size_t j = 0, n = p->context().degree(); j < n; ++j)
                h = (h ^ d[j]) * 0x100000001b3ull;
        }
    }
    return h;
}

Slots
decryptSlots(const ckks::Context &ctx, const ckks::KeyBundle &keys,
             const ckks::KeyGen &kg, const ckks::Ciphertext &ct)
{
    ckks::Encoder enc(ctx);
    ckks::Encryptor encr(ctx, keys.pk);
    return enc.decode(encr.decrypt(ct, kg.secretKey()));
}

double
maxError(const Slots &a, const Slots &b)
{
    double worst = 0;
    for (std::size_t i = 0; i < b.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

double
precisionBits(double maxErr)
{
    return maxErr > 0 ? std::min(60.0, -std::log2(maxErr)) : 60.0;
}

OpCounters
OpCounters::read(const std::vector<DeviceSet *> &devs)
{
    OpCounters c;
    for (DeviceSet *d : devs) {
        c.work += d->aggregateCounters();
        c.kernels += d->logicalKernels();
        c.joins += d->hostJoins();
    }
    return c;
}

OpCounters
OpCounters::since(const OpCounters &b) const
{
    OpCounters d;
    d.work = {work.launches - b.work.launches,
              work.bytesRead - b.work.bytesRead,
              work.bytesWritten - b.work.bytesWritten,
              work.intOps - b.work.intOps};
    d.kernels = kernels - b.kernels;
    d.joins = joins - b.joins;
    return d;
}

void
OpCounters::record(Record &rec, u64 ops) const
{
    const u64 k = ops ? ops : 1;
    const double n = static_cast<double>(k);
    const KernelCounters per{work.launches / k, work.bytesRead / k,
                             work.bytesWritten / k, work.intOps / k};
    double modelUs = 0;
    for (const DeviceProfile &p : platformTable())
        if (p.name == "RTX-4090")
            modelUs = p.modeledTimeUs(per);
    rec.add("core.device.launches_per_op", work.launches / n);
    rec.add("core.device.kernels_per_op", kernels / n);
    rec.add("core.device.joins_per_op", joins / n);
    rec.add("core.device.computed_mb_per_op",
            (work.bytesRead + work.bytesWritten) / n / 1e6);
    rec.add("core.device.model_us_per_op", modelUs);
}

u64
planHits(const std::vector<const ckks::Context *> &ctxs)
{
    u64 n = 0;
    for (const ckks::Context *c : ctxs)
        n += c->planStats().hits;
    return n;
}

void
recordPlanLayer(const std::vector<const ckks::Context *> &ctxs,
                u64 hitsBefore, u64 ops, Record &rec)
{
    double misses = 0, keys = 0, arena = 0, pinned = 0;
    for (const ckks::Context *c : ctxs) {
        const ckks::kernels::PlanCacheStats ps = c->planStats();
        misses += static_cast<double>(ps.misses);
        keys += static_cast<double>(ps.keys.size());
        arena += static_cast<double>(ps.reservedBytes);
        DeviceSet &devs = c->devices();
        for (u32 i = 0; i < devs.numDevices(); ++i)
            pinned += static_cast<double>(devs.device(i).pool().bytesReserved());
    }
    rec.values["ckks.graph.hits_per_op"] =
        static_cast<double>(planHits(ctxs) - hitsBefore)
        / static_cast<double>(ops ? ops : 1);
    rec.values["ckks.graph.misses"] = misses;
    rec.values["ckks.graph.keys"] = keys;
    rec.values["ckks.graph.arena_mb"] = arena / 1e6;
    rec.values["core.device.pool_reserved_mb"] = pinned / 1e6;
}

void
sampleRotations(const ckks::Evaluator &eval, const ckks::KeyGen &kg,
                const ckks::Ciphertext &top, const Slots &z, double maxErr,
                u32 reps, Record &rec)
{
    const ckks::Context &ctx = eval.context();
    DeviceSet &devs = ctx.devices();
    Slots want(z.size());
    for (std::size_t k = 0; k < z.size(); ++k)
        want[k] = z[(k + 1) % z.size()];
    std::optional<u64> ref;
    for (u32 i = 0; i < reps; ++i) {
        ++rec.attempted;
        try {
            JoinCheck jc({&devs});
            const double t0 = nowUs();
            ckks::Ciphertext rot = eval.rotate(top, 1);
            devs.synchronize();
            rec.add("rotate_ms", (nowUs() - t0) / 1e3);
            jc.done();
            const u64 h = limbDigest(rot);
            if (ref == h)
                continue;
            const double err =
                maxError(decryptSlots(ctx, eval.keys(), kg, rot), want);
            if (!(err < maxErr))
                throw CheckFailure("rotation error " + std::to_string(err));
            if (!ref)
                ref = h;
        } catch (const std::exception &e) {
            rec.fail(e.what());
        }
    }
}

void
Record::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

std::string
Record::json(const std::vector<Span> &spans) const
{
    std::ostringstream os;
    os << "{\"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"result_digest\": \"" << digest << "\", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ", " : "") << '"' << escape(failures[i]) << '"';
    os << "], \"info\": {";
    bool first = true;
    for (const auto &[k, v] : info) {
        os << (first ? "" : ", ") << '"' << k << "\": \"" << escape(v)
           << '"';
        first = false;
    }
    os << "}, \"values\": {";
    first = true;
    for (const auto &[k, v] : values) {
        os << (first ? "" : ", ") << '"' << k << "\": " << num(v);
        first = false;
    }
    os << "}, \"series\": {";
    first = true;
    for (const auto &[k, vs] : series) {
        os << (first ? "" : ", ") << '"' << k << "\": [";
        for (std::size_t i = 0; i < vs.size(); ++i)
            os << (i ? ", " : "") << num(vs[i]);
        os << ']';
        first = false;
    }
    os << "}, \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "[\"" << escape(s.name) << "\", "
           << num(s.startUs) << ", " << num(s.endUs) << ", " << s.parent
           << ", " << s.req << ", " << s.tid << ']';
    }
    os << "]}\n";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void
probeKernelLayers(const ckks::Evaluator &eval, const ckks::Ciphertext &ct,
                  const ckks::Ciphertext &other, Record &rec, Tracer &tr,
                  bool wire)
{
    using namespace fideslib::ckks;
    const Context &ctx = eval.context();
    DeviceSet &devs = ctx.devices();
    constexpr u32 kReps = 5;
    ct.syncHost();
    other.syncHost();
    const int root = tr.begin("bench.probe");
    // Times one synced call of a layer's public function as a span.
    auto timed = [&](const char *span, const std::string &series,
                     auto &&call) {
        Scope sp(tr, span, root);
        const double t0 = nowUs();
        call();
        devs.synchronize();
        rec.add(series, (nowUs() - t0) / 1e3);
    };

    // core.ntt: the core transform on every limb of the operand, on
    // the calling thread (host buffers; synchronous by construction).
    std::vector<std::vector<u64>> limbs;
    for (std::size_t i = 0; i < ct.c0.numLimbs(); ++i) {
        const u64 *p = ct.c0.limb(i).data();
        limbs.emplace_back(p, p + ctx.degree());
    }
    auto eachLimb = [&](void (*ntt)(u64 *, const NttTables &)) {
        for (std::size_t i = 0; i < limbs.size(); ++i)
            ntt(limbs[i].data(), *ctx.prime(ct.c0.primeIdxAt(i)).ntt);
    };
    RNSPoly poly = ct.c0.clone();
    RNSPoly coeff = ct.c1.clone();
    kernels::toCoeff(coeff);
    for (u32 r = 0; r < kReps; ++r) {
        timed("core.ntt.inverse", "core.ntt.inv_ms",
              [&] { eachLimb(nttInverse); });
        timed("core.ntt.forward", "core.ntt.fwd_ms",
              [&] { eachLimb(nttForward); });

        // ckks.kernels: the device-dispatched transforms.
        timed("ckks.kernels.to_coeff", "ckks.kernels.to_coeff_ms",
              [&] { kernels::toCoeff(poly); });
        timed("ckks.kernels.to_eval", "ckks.kernels.to_eval_ms",
              [&] { kernels::toEval(poly); });

        // ckks.basechange: ModUp of every digit, ModDown, Rescale.
        timed("ckks.basechange.modup", "ckks.basechange.modup_ms", [&] {
            for (u32 d = 0; d < ctx.numDigits(coeff.level()); ++d)
                (void)modUpDigit(coeff, d);
        });
        RNSPoly raised = ct.c1.clone();
        raised.appendSpecialLimbs();
        RNSPoly top = ct.c1.clone();
        devs.synchronize();
        timed("ckks.basechange.moddown", "ckks.basechange.moddown_ms",
              [&] { modDown(raised); });
        timed("ckks.basechange.rescale", "ckks.basechange.rescale_ms",
              [&] { rescale(top); });

        // ckks.keyswitch: decomposition + ModUp, then the inner
        // product against the relinearization key.
        std::optional<RaisedDigits> digits;
        timed("ckks.keyswitch.decompose", "ckks.keyswitch.decompose_ms",
              [&] { digits.emplace(decomposeAndModUp(ct.c1)); });
        timed("ckks.keyswitch.inner", "ckks.keyswitch.inner_ms", [&] {
            (void)keySwitchAccumulate(*digits, eval.keys().relin);
        });

        // ckks.evaluator: does the host or the device bound an HMult?
        {
            Scope sp(tr, "ckks.evaluator.multiply", root);
            const double cpu0 = threadCpuUs();
            const double t0 = nowUs();
            Ciphertext m = eval.multiply(ct, other);
            const double t1 = nowUs();
            devs.synchronize();
            rec.add("ckks.evaluator.enqueue_ms", (t1 - t0) / 1e3);
            rec.add("ckks.evaluator.drain_ms", (nowUs() - t1) / 1e3);
            rec.add("ckks.evaluator.host_cpu_us", threadCpuUs() - cpu0);
        }

        // ckks.serial: the client wire path, both directions.
        if (wire) {
            std::string bytes;
            timed("ckks.serial.download", "ckks.serial.download_ms",
                  [&] { bytes = wireBytes(ctx, ct); });
            timed("ckks.serial.upload", "ckks.serial.upload_ms", [&] {
                std::istringstream is(bytes);
                (void)serial::rebind(ctx, serial::readCiphertext(is));
            });
        }
    }
    tr.end(root);
}

} // namespace perfbench

/**
 * @file
 * Workload `bootstrap`: one synced Bootstrapper::bootstrap per sample
 * in a closed loop with one client (paper Table VI). testBoot
 * [12,24,50,4] with h=64, N/4 = 1024 slots (the slot count the
 * precision tests use), C2S/S2C level budgets 2, on the same 2 x 2
 * simulated topology as `primitives`. A long program (~4.6k logical
 * kernels) dominated by rotations, linear transforms, Chebyshev
 * evaluation and composite segment plans: where plan-arena memory
 * shows.
 */

#include <cmath>
#include <memory>
#include <numbers>
#include <optional>

#include "ckks/bootstrap.hpp"
#include "ckks/chebyshev.hpp"
#include "harness.hpp"

namespace perfbench
{

namespace
{

using namespace fideslib::ckks;

constexpr u64 kProbeSeed = 0x424f4f54; //!< fixed: result_digest inputs
constexpr u32 kInputs = 3;             //!< seeded messages per run
constexpr double kAmp = 0.28;          //!< |z| <= 0.4, as the tests use
constexpr double kMaxErr = 2e-3;       //!< test_bootstrap's bound
constexpr u32 kRotations = 10;         //!< rotate_ms samples per bootstrap

Parameters
params()
{
    Parameters p = Parameters::testBoot();
    p.numDevices = 2;
    p.streamsPerDevice = 2;
    p.limbBatch = 4;
    p.launchOverheadNs = 2000;
    return p;
}

struct Setup
{
    std::unique_ptr<Context> ctx;
    std::unique_ptr<KeyGen> kg;
    std::unique_ptr<KeyBundle> keys;
    std::unique_ptr<Evaluator> eval;
    std::unique_ptr<Bootstrapper> boot;
    BootstrapConfig cfg;
    std::string digest;
    double warmupMs = 0;

    Ciphertext
    encrypt(const Slots &z, u32 level) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        return encr.encrypt(enc.encode(z, cfg.slots, level));
    }
};

std::unique_ptr<Setup>
makeSetup()
{
    auto s = std::make_unique<Setup>();
    s->ctx = std::make_unique<Context>(params());
    s->kg = std::make_unique<KeyGen>(*s->ctx);
    s->keys = std::make_unique<KeyBundle>(s->kg->makeBundle({1}, true));
    s->eval = std::make_unique<Evaluator>(*s->ctx, *s->keys);
    s->cfg.slots = static_cast<u32>(s->ctx->degree() / 4);
    s->cfg.levelBudgetC2S = 2;
    s->cfg.levelBudgetS2C = 2;
    s->boot = std::make_unique<Bootstrapper>(*s->eval, s->cfg);
    s->kg->addRotationKeys(*s->keys, s->boot->requiredRotations());
    // Warm-up on the fixed probe message: captures the segment plans;
    // its output is the seed-independent result_digest.
    Rng probe(kProbeSeed);
    const Ciphertext in = s->encrypt(probe.slots(s->cfg.slots, kAmp), 0);
    const double t0 = nowUs();
    Ciphertext out = s->boot->bootstrap(in);
    s->ctx->devices().synchronize();
    s->warmupMs = (nowUs() - t0) / 1e3;
    s->digest = hex64(fnv1a(wireBytes(*s->ctx, out)));
    return s;
}

/**
 * ckks.bootstrap stage timings, rebuilt from the public pieces the
 * Bootstrapper composes: applyEncoded over the C2S / S2C stages and
 * the ApproxModEval polynomial (Chebyshev series plus double angles)
 * for one of the two real parts. They run outside the composite
 * segment scopes, so each replays per-op plans.
 */
void
probeStages(const Setup &s, const Ciphertext &top, Record &rec, Tracer &tr)
{
    const Evaluator &ev = *s.eval;
    DeviceSet &devs = s.ctx->devices();
    const u32 slots = s.cfg.slots;
    auto encodeAll = [&](const std::vector<DiagMatrix> &stages, u32 lvl) {
        std::vector<EncodedDiagMatrix> enc;
        for (u32 i = 0; i < stages.size(); ++i)
            enc.push_back(encodeDiagMatrix(ev, stages[i], slots, lvl - i));
        return enc;
    };
    auto apply = [&](Ciphertext x, const std::vector<EncodedDiagMatrix> &e) {
        for (const EncodedDiagMatrix &m : e)
            x = applyEncoded(ev, x, m);
        return x;
    };
    const double r = static_cast<double>(1u << s.boot->numDoubleAngles());
    const double keff = s.boot->keff();
    const std::vector<double> coeffs = chebyshevInterpolate(
        [keff, r](double y) {
            return std::cos((2.0 * std::numbers::pi * keff * y
                             - std::numbers::pi / 2.0)
                            / r);
        },
        s.boot->chebyshevDegree());
    auto approxMod = [&](const Ciphertext &y) {
        Ciphertext c = evalChebyshevSeries(ev, y, coeffs);
        for (u32 i = 0; i < s.boot->numDoubleAngles(); ++i) {
            Ciphertext sq = ev.squareC(c);
            c = ev.addC(sq, sq);
            ev.addScalarInPlace(c, -1.0);
        }
        return c;
    };

    const auto c2s = encodeAll(buildC2SStages(slots, 2), top.level());
    Ciphertext y = apply(top.clone(), c2s);
    Ciphertext w = approxMod(y);
    const auto s2c = encodeAll(buildS2CStages(slots, 2), w.level());
    devs.synchronize();
    const int root = tr.begin("bench.probe");
    auto timed = [&](const char *span, const std::string &series,
                     auto &&call) {
        Scope sp(tr, span, root);
        const double t0 = nowUs();
        call();
        devs.synchronize();
        rec.add(series, (nowUs() - t0) / 1e3);
    };
    for (u32 i = 0; i < 3; ++i) {
        timed("ckks.bootstrap.c2s", "ckks.bootstrap.c2s_ms",
              [&] { (void)apply(top.clone(), c2s); });
        timed("ckks.bootstrap.evalmod", "ckks.bootstrap.evalmod_ms",
              [&] { (void)approxMod(y); });
        timed("ckks.bootstrap.s2c", "ckks.bootstrap.s2c_ms",
              [&] { (void)apply(w.clone(), s2c); });
    }
    tr.end(root);
}

} // namespace

void
runBootstrap(const RunOptions &opt, Record &rec, Tracer &tr)
{
    const auto s = repeatSetup(opt, rec, makeSetup);
    rec.digest = s->digest;
    rec.info["params"] = "testBoot [12,24,50,4] h=64, 1024 slots, "
                         "budgets 2/2";
    rec.info["topology"] = "2 devices x 2 streams, limbBatch 4, 2us launch";

    Rng rng(opt.seed);
    std::vector<Slots> msgs;
    std::vector<Ciphertext> ins;
    for (u32 i = 0; i < kInputs; ++i) {
        msgs.push_back(rng.slots(s->cfg.slots, kAmp));
        ins.push_back(s->encrypt(msgs.back(), 0));
    }
    // Rotation by one slot at the bootstrap's top level (the primitive
    // C2S and S2C are built from). Untraced runs, which report it,
    // sample it after every bootstrap so its samples span the window;
    // traced runs leave it out of the plan-cache layer they report.
    const Slots z = rng.slots(s->cfg.slots, kAmp);
    const Ciphertext top = s->encrypt(z, s->ctx->maxLevel());
    DeviceSet &devs = s->ctx->devices();
    const std::vector<DeviceSet *> set{&devs};
    devs.synchronize();

    Tracer off(false);
    auto loop = [&](double seconds, Tracer &t, const std::string &pfx,
                    Record *perOp) {
        const double end = nowUs() + seconds * 1e6;
        for (u32 i = 0; i == 0 || nowUs() < end; ++i) {
            ++rec.attempted;
            try {
                const OpCounters c0 = OpCounters::read(set);
                const int root = t.begin("bench.sample");
                JoinCheck jc(set);
                const double t0 = nowUs();
                std::optional<Ciphertext> out;
                {
                    Scope sp(t, "ckks.bootstrap.bootstrap", root);
                    out.emplace(s->boot->bootstrap(ins[i % kInputs]));
                }
                {
                    Scope sp(t, "core.device.synchronize", root);
                    devs.synchronize();
                }
                const double ms = (nowUs() - t0) / 1e3;
                t.end(root);
                jc.done();
                if (perOp)
                    OpCounters::read(set).since(c0).record(*perOp, 1);
                rec.add(pfx + "latency_ms", ms);
                rec.add(pfx + "sample_ms", ms);
                const double err = maxError(
                    decryptSlots(*s->ctx, *s->keys, *s->kg, *out),
                    msgs[i % kInputs]);
                if (!(err < kMaxErr))
                    throw CheckFailure("bootstrap error "
                                       + std::to_string(err));
                rec.add("precision_bits", precisionBits(err));
            } catch (const std::exception &e) {
                rec.fail(e.what());
            }
            if (!opt.trace)
                sampleRotations(*s->eval, *s->kg, top, z, kMaxErr,
                                kRotations, rec);
        }
    };
    if (!opt.trace) {
        loop(opt.seconds, off, "", nullptr);
    } else {
        const u64 hits0 = planHits({s->ctx.get()});
        const u64 attempted0 = rec.attempted;
        loop(opt.seconds / 2, off, "untraced.", nullptr);
        loop(opt.seconds / 2, tr, "", &rec);
        recordPlanLayer({s->ctx.get()}, hits0, rec.attempted - attempted0,
                        rec);
        rec.values["ckks.graph.warmup_ms"] = s->warmupMs;
        probeKernelLayers(*s->eval, top, top, rec, tr, true);
        probeStages(*s, top, rec, tr);
    }
}

} // namespace perfbench

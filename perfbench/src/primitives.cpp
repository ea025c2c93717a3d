/**
 * @file
 * Workload `primitives`: the paper's headline primitives (Table V,
 * Fig. 8) in a closed loop with one client. Each sample is HMult with
 * relinearization plus rescale, then a rotation by one slot, on
 * max-level paper14 ciphertexts, each synced. Two simulated devices x
 * two streams, limbBatch 4 and a 2 us launch overhead put it in the
 * launch-bound regime of Fig. 7. Serving, batching and segment plans
 * are idle here, so serving-side changes should not move it.
 */

#include <memory>
#include <optional>

#include "ckks/evaluator.hpp"
#include "harness.hpp"

namespace perfbench
{

namespace
{

using namespace fideslib::ckks;

constexpr u64 kProbeSeed = 0x5052494d; //!< fixed: result_digest inputs
constexpr u32 kPairs = 4;              //!< seeded operand pairs per run
constexpr double kAmp = 0.7;           //!< |re|, |im| bound of a slot
constexpr double kMaxErr = 1e-4;       //!< HMult output tolerance

Parameters
params()
{
    Parameters p = Parameters::paper14();
    p.numDevices = 2;
    p.streamsPerDevice = 2;
    p.limbBatch = 4;
    p.launchOverheadNs = 2000;
    return p;
}

struct Operands
{
    Ciphertext a, b;
    Slots za, zb;
};

struct Setup
{
    std::unique_ptr<Context> ctx;
    std::unique_ptr<KeyGen> kg;
    std::unique_ptr<KeyBundle> keys;
    std::unique_ptr<Evaluator> eval;
    std::string digest;
    double warmupMs = 0;

    Operands
    encrypt(Rng &rng) const
    {
        Encoder enc(*ctx);
        Encryptor encr(*ctx, keys->pk);
        const u32 n = ctx->degree() / 2;
        Slots za = rng.slots(n, kAmp), zb = rng.slots(n, kAmp);
        Ciphertext a = encr.encrypt(enc.encode(za, n, ctx->maxLevel()));
        Ciphertext b = encr.encrypt(enc.encode(zb, n, ctx->maxLevel()));
        return {std::move(a), std::move(b), std::move(za), std::move(zb)};
    }
};

struct Outputs
{
    std::optional<Ciphertext> prod, rot;
    double hmultMs = 0, rotateMs = 0;
};

/** One timed sample; every op ends in a checked host join. */
Outputs
sample(const Setup &s, const Operands &o, Tracer &tr, Record *perOp)
{
    DeviceSet &devs = s.ctx->devices();
    const std::vector<DeviceSet *> set{&devs};
    const int root = tr.begin("bench.sample");
    Outputs out;

    const OpCounters c0 = OpCounters::read(set);
    JoinCheck hj(set);
    double t0 = nowUs();
    {
        Scope sp(tr, "ckks.evaluator.multiply", root);
        out.prod.emplace(s.eval->multiply(o.a, o.b));
    }
    {
        Scope sp(tr, "ckks.evaluator.rescale", root);
        s.eval->rescaleInPlace(*out.prod);
    }
    {
        Scope sp(tr, "core.device.synchronize", root);
        devs.synchronize();
    }
    out.hmultMs = (nowUs() - t0) / 1e3;
    hj.done();
    if (perOp)
        OpCounters::read(set).since(c0).record(*perOp, 1);

    JoinCheck rj(set);
    t0 = nowUs();
    {
        Scope sp(tr, "ckks.evaluator.rotate", root);
        out.rot.emplace(s.eval->rotate(o.a, 1));
    }
    {
        Scope sp(tr, "core.device.synchronize", root);
        devs.synchronize();
    }
    out.rotateMs = (nowUs() - t0) / 1e3;
    rj.done();
    tr.end(root);
    return out;
}

std::unique_ptr<Setup>
makeSetup(Tracer &off)
{
    auto s = std::make_unique<Setup>();
    s->ctx = std::make_unique<Context>(params());
    s->kg = std::make_unique<KeyGen>(*s->ctx);
    s->keys = std::make_unique<KeyBundle>(s->kg->makeBundle({1}));
    s->eval = std::make_unique<Evaluator>(*s->ctx, *s->keys);
    // Warm-up on the fixed probe operands: captures the plans, and its
    // outputs are the seed-independent result_digest.
    Rng probe(kProbeSeed);
    const Operands o = s->encrypt(probe);
    const double t0 = nowUs();
    Outputs w = sample(*s, o, off, nullptr);
    s->warmupMs = (nowUs() - t0) / 1e3;
    s->digest = hex64(fnv1a(wireBytes(*s->ctx, *w.rot),
                            fnv1a(wireBytes(*s->ctx, *w.prod))));
    return s;
}

/**
 * Checks one sample's outputs. The library is deterministic, so the
 * first outputs of each operand pair are decrypted and compared with
 * the plaintext, and later outputs of that pair must equal them bit
 * for bit: decoding costs more than the sample itself. An output that
 * differs from its reference is decrypted and checked in turn.
 */
void
verify(const Setup &s, const Operands &o, const Outputs &out, Record &rec,
       std::optional<u64> &ref, u64 &decrypted)
{
    const u64 h = limbDigest(*out.rot, limbDigest(*out.prod));
    if (ref == h)
        return;
    const std::size_t n = o.za.size();
    Slots prod(n), rot(n);
    for (std::size_t i = 0; i < n; ++i) {
        prod[i] = o.za[i] * o.zb[i];
        rot[i] = o.za[(i + 1) % n];
    }
    const double pe =
        maxError(decryptSlots(*s.ctx, *s.keys, *s.kg, *out.prod), prod);
    const double re =
        maxError(decryptSlots(*s.ctx, *s.keys, *s.kg, *out.rot), rot);
    ++decrypted;
    if (!(pe < kMaxErr) || !(re < kMaxErr))
        throw CheckFailure("primitives output error " + std::to_string(pe)
                           + " / " + std::to_string(re));
    rec.add("precision_bits", precisionBits(pe));
    if (!ref)
        ref = h;
}

} // namespace

void
runPrimitives(const RunOptions &opt, Record &rec, Tracer &tr)
{
    Tracer off(false);
    const auto s = repeatSetup(opt, rec, [&off] { return makeSetup(off); });
    rec.digest = s->digest;
    rec.info["params"] = "paper14 [14,13,49,3]";
    rec.info["topology"] = "2 devices x 2 streams, limbBatch 4, 2us launch";

    Rng rng(opt.seed);
    std::vector<Operands> ops;
    std::vector<std::optional<u64>> refs(kPairs);
    u64 decrypted = 0;
    for (u32 i = 0; i < kPairs; ++i)
        ops.push_back(s->encrypt(rng));
    s->ctx->devices().synchronize();

    // Traced runs measure half the window untraced first, so the
    // tracing overhead is a same-process comparison.
    auto loop = [&](double seconds, Tracer &t, const std::string &pfx,
                    Record *perOp) {
        const double end = nowUs() + seconds * 1e6;
        for (u32 i = 0; i == 0 || nowUs() < end; ++i) {
            const Operands &o = ops[i % kPairs];
            ++rec.attempted;
            try {
                Outputs out = sample(*s, o, t, perOp);
                rec.add(pfx + "latency_ms", out.hmultMs);
                rec.add(pfx + "rotate_ms", out.rotateMs);
                rec.add(pfx + "sample_ms", out.hmultMs + out.rotateMs);
                verify(*s, o, out, rec, refs[i % kPairs], decrypted);
            } catch (const std::exception &e) {
                rec.fail(e.what());
            }
        }
    };
    const u64 hits0 = planHits({s->ctx.get()});
    const u64 attempted0 = rec.attempted;
    if (opt.trace) {
        loop(opt.seconds / 2, off, "untraced.", nullptr);
        loop(opt.seconds / 2, tr, "", &rec);
    } else {
        loop(opt.seconds, off, "", nullptr);
    }

    rec.info["outputs_decrypted"] = std::to_string(decrypted);

    recordPlanLayer({s->ctx.get()}, hits0, rec.attempted - attempted0, rec);
    rec.values["ckks.graph.warmup_ms"] = s->warmupMs;
    if (opt.trace)
        probeKernelLayers(*s->eval, ops[0].a, ops[0].b, rec, tr, true);
}

} // namespace perfbench

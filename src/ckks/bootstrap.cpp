#include "ckks/bootstrap.hpp"

#include <cmath>
#include <numbers>

#include <set>

#include "ckks/basechange.hpp"
#include "ckks/chebyshev.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/kernels.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks
{

Bootstrapper::Bootstrapper(const Evaluator &eval,
                           const BootstrapConfig &cfg)
    : eval_(eval), cfg_(cfg)
{
    const Context &ctx = eval.context();
    const std::size_t n = ctx.degree();
    FIDES_ASSERT(cfg_.slots > 0 && cfg_.slots <= n / 2);
    FIDES_ASSERT(isPowerOfTwo(cfg_.slots));
    gap_ = static_cast<u32>((n / 2) / cfg_.slots);

    // Effective range of |t'| / q0 after the trace: the base bound K
    // on |I| grows by ~sqrt(gap) when gap automorphism images of I
    // are summed (random-sign accumulation).
    const bool sparse = ctx.params().secretHammingWeight > 0;
    double base = sparse ? cfg_.kBase : cfg_.kUniform;
    if (!sparse) {
        warn("bootstrapping with a dense ternary secret: range K=%g "
             "requires a large Chebyshev degree",
             base);
    }
    // Tail bound: the SubSum trace adds `gap` signed images of I, so
    // the sum concentrates around sqrt(gap) * |I| but its tail over N
    // coefficients reaches several times that; a 3x factor keeps the
    // Chebyshev argument safely inside [-1, 1] (outside, T_k grows
    // like cosh and the pipeline diverges).
    keff_ = base
          * std::max(1.0, 3.0 * std::sqrt(static_cast<double>(gap_)));

    // Double-angle count: bring the cosine argument down to a few
    // oscillations so the Chebyshev degree stays moderate.
    doubleAngles_ = cfg_.doubleAngles;
    if (doubleAngles_ == 0) {
        doubleAngles_ = 3;
        while ((keff_ / static_cast<double>(1u << doubleAngles_)) > 4.0
               && doubleAngles_ < 9) {
            ++doubleAngles_;
        }
    }

    const double r = static_cast<double>(1u << doubleAngles_);
    const double kf = keff_;
    auto target = [kf, r](double y) {
        return std::cos((2.0 * std::numbers::pi * kf * y
                         - std::numbers::pi / 2.0)
                        / r);
    };
    chebDegree_ = chebyshevDegreeFor(target, cfg_.targetError, 16);
    chebCoeffs_ = chebyshevInterpolate(target, chebDegree_);

    // Linear-transform stages.
    c2s_ = buildC2SStages(cfg_.slots, cfg_.levelBudgetC2S);
    s2c_ = buildS2CStages(cfg_.slots, cfg_.levelBudgetS2C);

    // Fold constants: CoeffToSlot divides by 2 Keff q0 / Delta (the
    // 1/2 pre-pays the conjugation split); SlotToCoeff multiplies by
    // q0 / (2 pi g Delta) to undo the sine slope and the trace factor.
    const long double q0 =
        static_cast<long double>(ctx.qMod(0).value);
    const long double delta = ctx.defaultScale();
    c2s_.front().scale(
        Cplx(delta / (2.0L * static_cast<long double>(keff_) * q0), 0));
    s2c_.front().scale(
        Cplx(q0 / (2.0L * std::numbers::pi_v<long double> *
                   static_cast<long double>(gap_) * delta),
             0));

    const u32 need = depth();
    if (need + 1 > ctx.maxLevel()) {
        fatal("bootstrap needs %u levels but the context has only %u "
              "(increase multDepth)",
              need, ctx.maxLevel());
    }
}

u32
Bootstrapper::depth() const
{
    return static_cast<u32>(c2s_.size()) + chebyshevDepth(chebDegree_)
         + doubleAngles_ + static_cast<u32>(s2c_.size());
}

u32
Bootstrapper::outputLevel() const
{
    return eval_.context().maxLevel() - depth();
}

std::vector<i64>
Bootstrapper::requiredRotations() const
{
    std::set<i64> rots;
    auto addAll = [&](const std::vector<DiagMatrix> &stages) {
        for (const auto &m : stages) {
            for (i64 k : fideslib::ckks::requiredRotations(m))
                rots.insert(k);
        }
    };
    addAll(c2s_);
    addAll(s2c_);
    for (u32 i = 0; (1u << i) < gap_; ++i)
        rots.insert(static_cast<i64>(cfg_.slots) << i);
    rots.erase(0);
    return {rots.begin(), rots.end()};
}

const EncodedDiagMatrix &
Bootstrapper::encodedStage(bool s2c, u32 idx, u32 level) const
{
    std::lock_guard<std::mutex> lock(*cacheMutex_);
    auto key = std::make_tuple(s2c, idx, level);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        const DiagMatrix &m = s2c ? s2c_[idx] : c2s_[idx];
        it = cache_
                 .emplace(key, encodeDiagMatrix(eval_, m, cfg_.slots,
                                                level))
                 .first;
    }
    return it->second;
}

Ciphertext
Bootstrapper::approxMod(const Ciphertext &y) const
{
    Ciphertext c = evalChebyshevSeries(eval_, y, chebCoeffs_);
    for (u32 i = 0; i < doubleAngles_; ++i) {
        Ciphertext sq = eval_.squareC(c);
        c = eval_.addC(sq, sq);
        eval_.addScalarInPlace(c, -1.0);
    }
    return c;
}

Ciphertext
Bootstrapper::bootstrap(const Ciphertext &ct) const
{
    const Context &ctx = eval_.context();
    const std::size_t n = ctx.degree();
    FIDES_ASSERT(ct.slots == cfg_.slots);

    // 0. Consume remaining levels and normalize the scale to Delta.
    // With a spare level the adjustment is exact: multiply by 1 at
    // scale Delta * q_l / s_in, then rescale, landing on Delta up to
    // the 2^-50-ish rounding of the encoded scalar. (The canonical
    // level-scale chain can drift percent-level from Delta at deep
    // parameter sets, so this matters.)
    Ciphertext in = ct.clone();
    const long double delta = ctx.defaultScale();
    if (in.level() >= 1 &&
        std::fabs(in.scale / delta - 1.0L) > 1e-9L) {
        const u64 ql = ctx.qMod(in.level()).value;
        eval_.multiplyScalarInPlace(
            in, 1.0L,
            delta * static_cast<long double>(ql) / in.scale);
        eval_.rescaleInPlace(in);
        in.scale = delta;
    }
    eval_.levelReduceInPlace(in, 0);
    long double ratio = delta / in.scale;
    if (std::fabs(ratio - 1.0L) > 1e-9L) {
        u64 k = static_cast<u64>(ratio + 0.5L);
        if (k < 1)
            k = 1;
        std::vector<u64> scalar(1, 0);
        scalar[0] = k % ctx.qMod(0).value;
        kernels::scalarMulInto(in.c0, scalar);
        kernels::scalarMulInto(in.c1, scalar);
        in.scale *= static_cast<long double>(k);
        long double residual =
            std::fabs(in.scale / delta - 1.0L);
        if (residual > 1e-6L) {
            warn("bootstrap input scale adjusted with residual error "
                 "2^%.1f",
                 (double)std::log2((double)residual));
        }
        in.scale = delta; // the residual is now message error
    } else {
        in.scale = delta;
    }

    // 1. ModRaise both components to the top level.
    kernels::toCoeff(in.c0);
    kernels::toCoeff(in.c1);
    RNSPoly r0 = modRaise(in.c0, ctx.maxLevel());
    RNSPoly r1 = modRaise(in.c1, ctx.maxLevel());
    kernels::toEval(r0);
    kernels::toEval(r1);
    Ciphertext raised{std::move(r0), std::move(r1), delta, cfg_.slots,
                      ct.noiseBits};

    // 2. SubSum for sparse packing: project t onto the subring.
    for (u32 i = 0; (1u << i) < gap_; ++i) {
        Ciphertext rot =
            eval_.rotate(raised, static_cast<i64>(cfg_.slots) << i);
        eval_.addInPlace(raised, rot);
    }

    // 3. CoeffToSlot stages. Each stage is encoded (once, into the
    // locked stage cache) before applyEncoded runs, so no encode ever
    // lands inside the per-op plan scopes of the stage's own ops.
    Ciphertext enc = std::move(raised);
    for (u32 s = 0; s < c2s_.size(); ++s)
        enc = applyEncoded(eval_, enc,
                           encodedStage(false, s, enc.level()));

    // 4-6. Conjugation split, ApproxModEval on both parts, and the
    // recombine. Re via conjugate-add (the 1/2 was folded into
    // CoeffToSlot), Im via an exact monomial multiply.
    Ciphertext conj = eval_.conjugate(enc);
    Ciphertext yRe = eval_.add(enc, conj);
    Ciphertext yIm = eval_.sub(enc, conj);
    eval_.multiplyByMonomialInPlace(yIm, 3 * n / 2); // times -i

    Ciphertext mRe = approxMod(yRe);
    Ciphertext mIm = approxMod(yIm);

    // Recombine: w = mRe + i * mIm.
    eval_.multiplyByMonomialInPlace(mIm, n / 2); // times +i
    Ciphertext w = eval_.addC(mRe, mIm);

    // 7. SlotToCoeff stages.
    for (u32 s = 0; s < s2c_.size(); ++s)
        w = applyEncoded(eval_, w, encodedStage(true, s, w.level()));

    // The pipeline's constants assumed input scale Delta; the output
    // is canonical at its level and re-encrypts the original message.
    w.slots = cfg_.slots;
    w.noiseBits = freshNoiseBits(ctx) + 10.0;
    return w;
}

} // namespace fideslib::ckks

#include "ckks/lintrans.hpp"

#include <cmath>
#include <numbers>
#include <set>

#include "core/logging.hpp"

namespace fideslib::ckks
{

namespace
{

i64
normOffset(i64 d, u32 slots)
{
    i64 s = static_cast<i64>(slots);
    return ((d % s) + s) % s;
}

/** Left-rotation of a plain vector by k. */
std::vector<Cplx>
rotVec(const std::vector<Cplx> &v, i64 k)
{
    const i64 n = static_cast<i64>(v.size());
    std::vector<Cplx> out(v.size());
    for (i64 i = 0; i < n; ++i)
        out[i] = v[normOffset(i + k, v.size())];
    return out;
}

} // namespace

void
DiagMatrix::addToDiag(i64 offset, std::size_t index, Cplx value)
{
    i64 d = normOffset(offset, slots_);
    auto it = diags_.find(d);
    if (it == diags_.end()) {
        it = diags_.emplace(d, std::vector<Cplx>(slots_, Cplx(0, 0)))
                 .first;
    }
    it->second[index] += value;
}

std::vector<Cplx>
DiagMatrix::apply(const std::vector<Cplx> &v) const
{
    FIDES_ASSERT(v.size() == slots_);
    std::vector<Cplx> y(slots_, Cplx(0, 0));
    for (const auto &[d, diag] : diags_) {
        for (u32 j = 0; j < slots_; ++j)
            y[j] += diag[j] * v[normOffset(j + d, slots_)];
    }
    return y;
}

void
DiagMatrix::scale(Cplx c)
{
    for (auto &[d, diag] : diags_) {
        for (auto &x : diag)
            x *= c;
    }
}

DiagMatrix
DiagMatrix::identity(u32 slots)
{
    DiagMatrix m(slots);
    for (u32 j = 0; j < slots; ++j)
        m.addToDiag(0, j, Cplx(1, 0));
    return m;
}

DiagMatrix
DiagMatrix::fromDense(u32 slots, const std::vector<Cplx> &dense)
{
    FIDES_ASSERT(dense.size() == static_cast<std::size_t>(slots) * slots);
    DiagMatrix m(slots);
    for (u32 r = 0; r < slots; ++r) {
        for (u32 c = 0; c < slots; ++c) {
            Cplx v = dense[r * slots + c];
            if (std::abs(v) > 1e-300L)
                m.addToDiag(static_cast<i64>(c) - static_cast<i64>(r),
                            r, v);
        }
    }
    return m;
}

DiagMatrix
DiagMatrix::composeAfter(const DiagMatrix &other) const
{
    FIDES_ASSERT(slots_ == other.slots_);
    DiagMatrix out(slots_);
    for (const auto &[d1, diagA] : diags_) {
        for (const auto &[d2, diagB] : other.diags_) {
            // (A after B)_{d1+d2} += A_{d1} .* rot_{d1}(B_{d2})
            auto rotated = rotVec(diagB, d1);
            for (u32 j = 0; j < slots_; ++j) {
                Cplx v = diagA[j] * rotated[j];
                if (v != Cplx(0, 0))
                    out.addToDiag(d1 + d2, j, v);
            }
        }
    }
    return out;
}

DiagMatrix
DiagMatrix::fftStage(u32 slots, u32 len, bool inverse)
{
    FIDES_ASSERT(isPowerOfTwo(slots) && isPowerOfTwo(len));
    FIDES_ASSERT(len >= 2 && len <= slots);
    const std::size_t M = 4 * static_cast<std::size_t>(slots);
    const u32 lenH = len / 2;
    const std::size_t lenQ = 4 * static_cast<std::size_t>(len);
    const long double step =
        2.0L * std::numbers::pi_v<long double> / M;

    // rot5[j] = 5^j mod M for twiddle indexing.
    std::vector<u64> rot(lenH);
    u64 g = 1;
    for (u32 j = 0; j < lenH; ++j) {
        rot[j] = g % lenQ;
        g = (g * 5) % M;
    }

    DiagMatrix m(slots);
    for (u32 p = 0; p < slots; ++p) {
        const u32 j = p % len;
        const bool firstHalf = j < lenH;
        const u32 tj = firstHalf ? j : j - lenH;
        const std::size_t idx = (rot[tj] % lenQ) * (M / lenQ);
        const Cplx w(std::cos(step * idx), std::sin(step * idx));
        if (!inverse) {
            // y[p] = v[p] + w v[p+lenH]  (first half)
            // y[p] = v[p-lenH] - w v[p]  (second half)
            if (firstHalf) {
                m.addToDiag(0, p, Cplx(1, 0));
                m.addToDiag(lenH, p, w);
            } else {
                m.addToDiag(-static_cast<i64>(lenH), p, Cplx(1, 0));
                m.addToDiag(0, p, -w);
            }
        } else {
            // u[p] = (v[p] + v[p+lenH]) / 2          (first half)
            // u[p] = (v[p-lenH] - v[p]) conj(w) / 2  (second half)
            const Cplx cw = std::conj(w) * Cplx(0.5L, 0);
            if (firstHalf) {
                m.addToDiag(0, p, Cplx(0.5L, 0));
                m.addToDiag(lenH, p, Cplx(0.5L, 0));
            } else {
                m.addToDiag(-static_cast<i64>(lenH), p, cw);
                m.addToDiag(0, p, -cw);
            }
        }
    }
    return m;
}

namespace
{

/** Splits the stage list into `budget` consecutive groups and
 *  composes each group (applied first = innermost of the group). */
std::vector<DiagMatrix>
mergeStages(std::vector<DiagMatrix> stages, u32 budget)
{
    FIDES_ASSERT(budget >= 1);
    const std::size_t total = stages.size();
    budget = std::min<u32>(budget, total);
    std::vector<DiagMatrix> out;
    out.reserve(budget);
    std::size_t done = 0;
    for (u32 gIdx = 0; gIdx < budget; ++gIdx) {
        std::size_t take = (total - done) / (budget - gIdx);
        DiagMatrix acc = stages[done];
        for (std::size_t i = 1; i < take; ++i)
            acc = stages[done + i].composeAfter(acc);
        out.push_back(std::move(acc));
        done += take;
    }
    return out;
}

} // namespace

std::vector<DiagMatrix>
buildC2SStages(u32 slots, u32 budget)
{
    // C2S applies inverse butterflies from len = slots down to 2.
    std::vector<DiagMatrix> stages;
    for (u32 len = slots; len >= 2; len >>= 1)
        stages.push_back(DiagMatrix::fftStage(slots, len, true));
    if (slots == 1)
        stages.push_back(DiagMatrix::identity(1));
    return mergeStages(std::move(stages), budget);
}

std::vector<DiagMatrix>
buildS2CStages(u32 slots, u32 budget)
{
    // S2C applies forward butterflies from len = 2 up to slots.
    std::vector<DiagMatrix> stages;
    for (u32 len = 2; len <= slots; len <<= 1)
        stages.push_back(DiagMatrix::fftStage(slots, len, false));
    if (slots == 1)
        stages.push_back(DiagMatrix::identity(1));
    return mergeStages(std::move(stages), budget);
}

BsgsPlan
planBsgs(const DiagMatrix &m)
{
    const u32 slots = m.slots();
    std::set<i64> offsets;
    for (const auto &[d, diag] : m.diags())
        offsets.insert(d);
    FIDES_ASSERT(!offsets.empty());

    // Baby stride ~ sqrt(#offsets), power of two for regular grids.
    i64 bs = 1;
    while (bs * bs < static_cast<i64>(offsets.size()))
        bs <<= 1;
    bs = std::min<i64>(bs * 1, slots);

    BsgsPlan plan;
    plan.babyCount = bs;
    std::set<i64> babies, giants;
    for (i64 d : offsets) {
        babies.insert(d % bs);
        giants.insert(d - d % bs);
    }
    plan.babies.assign(babies.begin(), babies.end());
    plan.giants.assign(giants.begin(), giants.end());
    return plan;
}

EncodedDiagMatrix
encodeDiagMatrix(const Evaluator &eval, const DiagMatrix &m, u32 slots,
                 u32 level)
{
    const Context &ctx = eval.context();
    EncodedDiagMatrix enc;
    enc.plan = planBsgs(m);
    enc.level = level;
    const long double scale = ctx.levelScale(level);
    const Encoder &encoder = eval.encoder();

    for (const auto &[d, diag] : m.diags()) {
        i64 j = d % enc.plan.babyCount;
        i64 g = d - j;
        // Pre-rotate right by g: prerot[i] = diag[i - g].
        std::vector<Cplx> prerot(slots);
        for (u32 i = 0; i < slots; ++i) {
            i64 src = ((static_cast<i64>(i) - g) %
                           static_cast<i64>(slots) +
                       slots) %
                      slots;
            prerot[i] = diag[src];
        }
        std::vector<std::complex<double>> z(slots);
        for (u32 i = 0; i < slots; ++i) {
            z[i] = {static_cast<double>(prerot[i].real()),
                    static_cast<double>(prerot[i].imag())};
        }
        enc.groups[g].emplace(j,
                              encoder.encode(z, slots, level, scale));
    }

    return enc;
}

Ciphertext
applyEncoded(const Evaluator &eval, const Ciphertext &ct,
             const EncodedDiagMatrix &enc)
{
    // Scale tracking is exact for any input scale; the plaintext
    // diagonals are encoded at the canonical scale of this level so
    // canonical inputs stay canonical after the final rescale.
    FIDES_ASSERT(ct.level() == enc.level);

    // Baby rotations shared across every group (HoistedRotate).
    std::vector<i64> babyList;
    for (i64 j : enc.plan.babies)
        babyList.push_back(j);
    auto rotated = eval.hoistedRotate(ct, babyList);
    std::map<i64, const Ciphertext *> babyCt;
    for (std::size_t i = 0; i < babyList.size(); ++i)
        babyCt[babyList[i]] = &rotated[i];

    bool first = true;
    Ciphertext acc = ct.clone(); // placeholder, overwritten below
    for (const auto &[g, jmap] : enc.groups) {
        std::vector<const Ciphertext *> cts;
        std::vector<const Plaintext *> pts;
        for (const auto &[j, pt] : jmap) {
            cts.push_back(babyCt.at(j));
            pts.push_back(&pt);
        }
        Ciphertext inner = eval.dotPlain(cts, pts);
        if (g != 0)
            inner = eval.rotate(inner, g);
        if (first) {
            acc = std::move(inner);
            first = false;
        } else {
            eval.addInPlace(acc, inner);
        }
    }
    eval.rescaleInPlace(acc);
    return acc;
}

Ciphertext
applyDiagMatrix(const Evaluator &eval, const Ciphertext &ct,
                const DiagMatrix &m)
{
    auto enc = encodeDiagMatrix(eval, m, ct.slots, ct.level());
    return applyEncoded(eval, ct, enc);
}

std::vector<i64>
requiredRotations(const DiagMatrix &m)
{
    BsgsPlan plan = planBsgs(m);
    std::set<i64> all;
    for (i64 j : plan.babies)
        all.insert(j);
    for (i64 g : plan.giants)
        all.insert(g);
    all.erase(0);
    return {all.begin(), all.end()};
}

} // namespace fideslib::ckks

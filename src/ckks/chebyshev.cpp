#include "ckks/chebyshev.hpp"

#include <cmath>
#include <numbers>

#include "core/logging.hpp"

namespace fideslib::ckks
{

std::vector<double>
chebyshevInterpolate(const std::function<double(double)> &f, u32 degree)
{
    const u32 M = degree + 1;
    std::vector<double> fv(M);
    for (u32 j = 0; j < M; ++j) {
        double theta = std::numbers::pi * (j + 0.5) / M;
        fv[j] = f(std::cos(theta));
    }
    std::vector<double> c(M);
    for (u32 k = 0; k < M; ++k) {
        double acc = 0;
        for (u32 j = 0; j < M; ++j) {
            double theta = std::numbers::pi * (j + 0.5) / M;
            acc += fv[j] * std::cos(k * theta);
        }
        c[k] = (k == 0 ? 1.0 : 2.0) * acc / M;
    }
    return c;
}

double
clenshawEval(const std::vector<double> &c, double x)
{
    double b1 = 0, b2 = 0;
    for (std::size_t k = c.size(); k-- > 1;) {
        double b0 = 2 * x * b1 - b2 + c[k];
        b2 = b1;
        b1 = b0;
    }
    return x * b1 - b2 + c[0];
}

double
chebyshevMaxError(const std::function<double(double)> &f,
                  const std::vector<double> &c, u32 samples)
{
    double worst = 0;
    for (u32 i = 0; i <= samples; ++i) {
        double x = -1.0 + 2.0 * i / samples;
        worst = std::max(worst, std::fabs(f(x) - clenshawEval(c, x)));
    }
    return worst;
}

u32
chebyshevDegreeFor(const std::function<double(double)> &f,
                   double targetError, u32 start, u32 cap)
{
    u32 d = start;
    while (d < cap) {
        auto c = chebyshevInterpolate(f, d);
        if (chebyshevMaxError(f, c) < targetError)
            return d;
        d *= 2;
    }
    warn("chebyshevDegreeFor hit the degree cap %u", cap);
    return cap;
}

std::pair<std::vector<double>, std::vector<double>>
chebyshevDivide(const std::vector<double> &c, u32 t)
{
    const std::size_t n = c.size() - 1; // degree
    FIDES_ASSERT(n >= t && t >= 1);
    std::vector<double> r = c;
    std::vector<double> q(n - t + 1, 0.0);
    for (std::size_t i = n; i >= t; --i) {
        double a = r[i];
        if (a != 0.0) {
            r[i] = 0.0;
            const std::size_t j = i - t;
            if (j == 0) {
                // T_t * T_0 = T_t.
                q[0] += a;
            } else {
                // T_i = 2 T_j T_t - T_|i-2t|.
                q[j] += 2 * a;
                const std::size_t idx =
                    i >= 2 * t ? i - 2 * t : 2 * t - i;
                r[idx] -= a;
            }
        }
        if (i == t)
            break;
    }
    r.resize(t, 0.0);
    if (r.empty())
        r.push_back(0.0);
    return {std::move(q), std::move(r)};
}

namespace
{

/** Degree ignoring trailing (near-)zero coefficients. */
std::size_t
chebDegree(const std::vector<double> &c)
{
    std::size_t d = c.size() - 1;
    while (d > 0 && std::fabs(c[d]) < 1e-300)
        --d;
    return d;
}

struct PsContext
{
    const Evaluator &eval;
    //! babies[j] = T_j for j in 1..k (index 0 unused).
    std::vector<Ciphertext> babies;
    //! giants[i] = T_{k * 2^i}.
    std::vector<Ciphertext> giants;
    u32 k;
};

/** Linear combination sum_j c_j T_j with deg < k (one level). */
Ciphertext
evalBabySpan(PsContext &ps, const std::vector<double> &c)
{
    const Evaluator &eval = ps.eval;
    const std::size_t d = chebDegree(c);
    FIDES_ASSERT(d < ps.k || (d == 1 && ps.k == 1));

    // Find the lowest level among used babies.
    u32 lmin = ps.babies[1].level();
    for (std::size_t j = 1; j <= d; ++j)
        lmin = std::min(lmin, ps.babies[j].level());

    bool any = false;
    Ciphertext acc = ps.babies[1].clone(); // placeholder
    for (std::size_t j = 1; j <= d; ++j) {
        if (std::fabs(c[j]) < 1e-300)
            continue;
        Ciphertext term = ps.babies[j].clone();
        eval.toCanonicalLevel(term, lmin);
        eval.multiplyScalarInPlace(
            term, static_cast<long double>(c[j]),
            eval.context().levelScale(lmin));
        if (!any) {
            acc = std::move(term);
            any = true;
        } else {
            eval.addInPlace(acc, term);
        }
    }
    if (!any) {
        // Constant polynomial: encode c_0 onto a zeroed ciphertext.
        acc = ps.babies[1].clone();
        eval.toCanonicalLevel(acc, lmin);
        eval.multiplyScalarInPlace(acc, 0.0L,
                                   eval.context().levelScale(lmin));
    }
    eval.addScalarInPlace(acc, c[0]);
    eval.rescaleInPlace(acc);
    return acc;
}

/** Recursive Paterson-Stockmeyer over the Chebyshev basis. */
Ciphertext
evalRec(PsContext &ps, const std::vector<double> &c)
{
    const Evaluator &eval = ps.eval;
    const std::size_t d = chebDegree(c);
    if (d < ps.k) {
        std::vector<double> cc(c.begin(), c.begin() + d + 1);
        return evalBabySpan(ps, cc);
    }
    // Largest giant T_{k 2^i} with k 2^i <= d.
    u32 i = 0;
    while ((static_cast<std::size_t>(ps.k) << (i + 1)) <= d)
        ++i;
    const u32 t = ps.k << i;
    auto [q, r] = chebyshevDivide(c, t);
    Ciphertext qe = evalRec(ps, q);
    Ciphertext re = evalRec(ps, r);
    Ciphertext prod = eval.multiplyC(qe, ps.giants[i]);
    return eval.addC(prod, re);
}

} // namespace

u32
chebyshevDepth(u32 degree)
{
    u32 k = 1;
    while (k * k < degree + 1)
        k <<= 1;
    u32 m = 0;
    while ((static_cast<u64>(k) << m) <= degree)
        ++m;
    // baby chain depth + giant chain + recursion combination.
    return log2Floor(k) + (m > 0 ? m - 1 : 0) + m + 1;
}

Ciphertext
evalChebyshevSeries(const Evaluator &eval, const Ciphertext &y,
                    const std::vector<double> &coeffs)
{
    FIDES_ASSERT(!coeffs.empty());
    FIDES_ASSERT(eval.isCanonical(y));
    const std::size_t d = chebDegree(coeffs);

    PsContext ps{eval, {}, {}, 1};
    // Baby-step count: power of two near sqrt(d+1).
    while (ps.k * ps.k < d + 1)
        ps.k <<= 1;

    // T_0 implicit; babies[0] is an unused placeholder, T_1 = y.
    ps.babies.reserve(ps.k + 1);
    ps.babies.push_back(y.clone());
    ps.babies.push_back(y.clone());
    for (u32 j = 2; j <= ps.k; ++j) {
        // T_{a+b} = 2 T_a T_b - T_{|a-b|}.
        u32 a = (j + 1) / 2, b = j / 2;
        Ciphertext prod = eval.multiplyC(ps.babies[a], ps.babies[b]);
        Ciphertext twice = eval.addC(prod, prod);
        if (a == b) {
            eval.addScalarInPlace(twice, -1.0); // T_0 = 1
            ps.babies.push_back(std::move(twice));
        } else {
            ps.babies.push_back(eval.subC(twice, ps.babies[a - b]));
        }
    }

    // Giants: T_k, T_2k, ... via T_{2t} = 2 T_t^2 - 1.
    u32 m = 0;
    while ((static_cast<u64>(ps.k) << m) <= d)
        ++m;
    ps.giants.reserve(m);
    ps.giants.push_back(ps.babies[ps.k].clone());
    for (u32 i = 1; i < m; ++i) {
        Ciphertext sq = eval.squareC(ps.giants[i - 1]);
        Ciphertext twice = eval.addC(sq, sq);
        eval.addScalarInPlace(twice, -1.0);
        ps.giants.push_back(std::move(twice));
    }

    std::vector<double> c(coeffs.begin(), coeffs.begin() + d + 1);
    return evalRec(ps, c);
}

} // namespace fideslib::ckks

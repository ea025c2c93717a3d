#include "ckks/context.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>

#include "ckks/graph.hpp"
#include "core/logging.hpp"
#include "core/primes.hpp"

namespace fideslib::ckks
{

namespace
{

Context *gCurrent = nullptr;

/**
 * Per-thread execution state bound to one Context: the active
 * capture/replay session and the installed stream lease. Sessions are
 * strictly scoped (PlanScope RAII on one thread), so a single slot
 * per thread suffices; the owning-context tag keeps a stale slot from
 * leaking into another Context's ops.
 */
struct ThreadExecState
{
    const Context *ctx = nullptr;
    kernels::GraphCapture *capture = nullptr;
    kernels::GraphReplay *replay = nullptr;
    const Context *leaseCtx = nullptr;
    const StreamLease *lease = nullptr;
};

thread_local ThreadExecState tExec;

/** Product of the primes selected by @p idx as a BigInt. */
BigInt
primeProduct(const std::vector<PrimeRecord> &primes,
             const std::vector<u32> &idx)
{
    BigInt prod(1);
    for (u32 i : idx)
        prod.mulWord(primes[i].value());
    return prod;
}

/**
 * Parses the FIDES_NTT_SCHEDULE environment value (case-insensitive;
 * accepts the short names nttVariantName emits plus a few obvious
 * spellings). Returns false on an unrecognized value.
 */
bool
parseNttSchedule(const char *s, NttSchedule &out)
{
    std::string v;
    for (const char *p = s; *p; ++p)
        v.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (v == "flat")
        out = NttSchedule::Flat;
    else if (v == "hier" || v == "hierarchical")
        out = NttSchedule::Hierarchical;
    else if (v == "radix4")
        out = NttSchedule::Radix4;
    else if (v == "blocked" || v == "blockedhier")
        out = NttSchedule::BlockedHier;
    else if (v == "fusedlast")
        out = NttSchedule::FusedLast;
    else if (v == "auto")
        out = NttSchedule::Auto;
    else
        return false;
    return true;
}

/** The concrete variant a non-Auto schedule pins for every shape. */
NttVariant
pinnedVariant(NttSchedule s)
{
    switch (s) {
    case NttSchedule::Flat: return NttVariant::Flat;
    case NttSchedule::Hierarchical: return NttVariant::Hierarchical;
    case NttSchedule::Radix4: return NttVariant::Radix4;
    case NttSchedule::BlockedHier: return NttVariant::BlockedHier;
    case NttSchedule::FusedLast: return NttVariant::FusedLast;
    case NttSchedule::Auto: break;
    }
    panic("pinnedVariant called on NttSchedule::Auto");
}

} // namespace

Context::Context(const Parameters &params)
    : params_(params),
      n_(params.ringDegree()),
      alpha_(params.digitSize()),
      numSpecial_(params.specialLimbs()),
      defaultScale_(static_cast<long double>(params.scale())),
      prng_(params.seed),
      limbBatch_(params.limbBatch),
      fusion_(params.fusion),
      nttSchedule_(params.nttSchedule),
      modMul_(params.modMul),
      graphEnabled_(std::getenv("FIDES_NO_GRAPH") == nullptr),
      plans_(std::make_unique<kernels::PlanCache>())
{
    params_.validate();
    // Escape hatch mirroring FIDES_NO_GRAPH: pin (or un-pin, with
    // "auto") the NTT schedule without touching code. Applied at
    // Context build only -- later setNttSchedule calls still win.
    if (const char *env = std::getenv("FIDES_NTT_SCHEDULE")) {
        NttSchedule s;
        if (parseNttSchedule(env, s))
            nttSchedule_ = s;
        else
            warn("ignoring unrecognized FIDES_NTT_SCHEDULE=%s", env);
    }
    // Hazard-validator escape hatch (check/check.hpp): FIDES_VALIDATE
    // turns the racecheck/declcheck/initcheck layer on for any
    // existing binary, before the DeviceSet below exists so the pool's
    // very first allocations are shadowed.
    if (const char *env = std::getenv("FIDES_VALIDATE")) {
        const std::string v(env);
        if (v == "0" || v == "off")
            check::setMode(check::Mode::Off);
        else if (v == "report" || v == "warn")
            check::setMode(check::Mode::Report);
        else
            check::setMode(check::Mode::Fatal);
    }
    // After validate(): bad topology values are user errors, not
    // DeviceSet invariant violations.
    devices_ = std::make_unique<DeviceSet>(params_.numDevices,
                                           params_.streamsPerDevice,
                                           params_.launchOverheadNs);
    defaultLease_ = std::make_unique<StreamLease>(*devices_);
    generatePrimeChain();
    buildConvTables();
    configureNtt();
    crt_.resize(params_.multDepth + 1);

    levelScales_.resize(params_.multDepth + 1);
    levelScales_[params_.multDepth] = defaultScale_;
    for (u32 l = params_.multDepth; l > 0; --l) {
        levelScales_[l - 1] = levelScales_[l] * levelScales_[l]
                            / static_cast<long double>(qMod(l).value);
    }
}

Context::~Context()
{
    // Drain every stream before teardown proceeds: members destruct
    // in reverse declaration order, so the tables kernel bodies read
    // (primes, conv tables, automorphism cache) die BEFORE devices_
    // -- an in-flight body would read freed memory. The join also
    // sweeps the pools' deferred frees, so the bytesInUse teardown
    // assertion runs against settled accounting.
    if (devices_)
        devices_->synchronize();
    if (gCurrent == this)
        gCurrent = nullptr;
}

kernels::GraphCapture *
Context::captureSession() const
{
    return tExec.ctx == this ? tExec.capture : nullptr;
}

kernels::GraphReplay *
Context::replaySession() const
{
    return tExec.ctx == this ? tExec.replay : nullptr;
}

void
Context::setCaptureSession(kernels::GraphCapture *c) const
{
    if (c) {
        tExec.ctx = this;
        tExec.capture = c;
        tExec.replay = nullptr;
    } else if (tExec.ctx == this) {
        tExec.capture = nullptr;
    }
}

void
Context::setReplaySession(kernels::GraphReplay *r) const
{
    if (r) {
        tExec.ctx = this;
        tExec.replay = r;
        tExec.capture = nullptr;
    } else if (tExec.ctx == this) {
        tExec.replay = nullptr;
    }
}

const StreamLease &
Context::streamLease() const
{
    if (tExec.leaseCtx == this && tExec.lease)
        return *tExec.lease;
    return *defaultLease_;
}

void
Context::setThreadLease(const StreamLease *lease) const
{
    tExec.leaseCtx = lease ? this : nullptr;
    tExec.lease = lease;
    if (check::enabled()) {
        if (lease) {
            std::vector<const Stream *> allowed;
            allowed.reserve(lease->numStreams());
            for (u32 i = 0; i < lease->numStreams(); ++i)
                allowed.push_back(&lease->stream(i));
            check::setThreadLease(allowed.data(), allowed.size());
        } else {
            check::setThreadLease(nullptr, 0);
        }
    }
}

void
Context::invalidatePlans()
{
    // A plan must never die under an op that is capturing or
    // replaying it; the execution knobs are only mutated between ops
    // (PlanCache::clear asserts no session is active on ANY thread).
    FIDES_ASSERT(captureSession() == nullptr &&
                 replaySession() == nullptr);
    plans_->clear();
    // The cleared plans' scratch arenas must not stay parked on the
    // pool free lists: a config sweep (the limb-batch bench) would
    // otherwise accrete one dead arena per configuration.
    for (u32 d = 0; d < devices_->numDevices(); ++d)
        devices_->device(d).pool().unreserve();
}

kernels::PlanCacheStats
Context::planStats() const
{
    kernels::PlanCacheStats stats = plans_->stats();
    for (u32 d = 0; d < devices_->numDevices(); ++d)
        stats.reservedBytes += devices_->device(d).pool().bytesReserved();
    return stats;
}

void
Context::setNttSchedule(NttSchedule s)
{
    if (s == nttSchedule_)
        return;
    // Replays re-run the kernel bodies, which read the choice table,
    // so a stale plan would execute the NEW schedule against arena
    // reservations sized for the old one -- drop the plans (and their
    // arenas) before the table changes under them.
    invalidatePlans();
    nttSchedule_ = s;
    configureNtt();
}

void
Context::configureNtt()
{
    nttBuckets_.clear();
    nttShapeStats_.clear();
    nttTuned_ = false;

    if (nttSchedule_ != NttSchedule::Auto) {
        const NttVariant v = pinnedVariant(nttSchedule_);
        pinnedNtt_ = NttChoice{v, v, 0, 0};
        return;
    }

    NttAutotuner tuner(NttAutotuner::Options::fromEnv());

    std::vector<const NttTables *> tables;
    tables.reserve(primes_.size());
    for (const PrimeRecord &p : primes_)
        tables.push_back(p.ntt.get());

    // Tune at power-of-two limb buckets 1, 2, 4, ... up to the full
    // prime-chain width (the widest working set any op can touch);
    // the final bucket is clamped to the actual width so the headline
    // shape is tuned exactly.
    const u32 total = numPrimes();
    for (u32 limbs = 1;; limbs <<= 1) {
        const u32 eff = std::min(limbs, total);
        NttShapeStats stats = tuner.tuneShape(tables, eff);
        nttBuckets_.push_back(stats.choice);
        nttShapeStats_.push_back(std::move(stats));
        if (limbs >= total)
            break;
    }
    pinnedNtt_ = nttBuckets_.front();
    nttTuned_ = true;
}

NttChoice
Context::nttChoiceFor(std::size_t limbs) const
{
    if (nttBuckets_.empty())
        return pinnedNtt_; // pinned (non-Auto) schedule
    std::size_t b = 0;
    while ((std::size_t{1} << b) < limbs &&
           b + 1 < nttBuckets_.size())
        ++b;
    return nttBuckets_[b];
}

NttStats
Context::nttStats() const
{
    NttStats s;
    s.configured = nttSchedule_;
    s.tuned = nttTuned_;
    s.shapes = nttShapeStats_;
    return s;
}

void
Context::generatePrimeChain()
{
    const u64 twoN = 2 * n_;
    const u32 L = params_.multDepth;

    u64 q0 = generatePrimeBelow(params_.firstModBits, twoN);
    std::vector<u64> exclude = {q0};
    std::vector<u64> scaling =
        L > 0 ? generatePrimes(params_.logDelta, twoN, L, exclude)
              : std::vector<u64>{};
    exclude.insert(exclude.end(), scaling.begin(), scaling.end());
    std::vector<u64> special = generatePrimes(
        params_.specialModBits, twoN, numSpecial_, exclude);

    auto addPrime = [&](u64 p, bool isSpecial) {
        PrimeRecord rec;
        rec.mod = Modulus(p);
        rec.ntt = std::make_unique<NttTables>(
            n_, rec.mod, findPrimitiveRoot(twoN, rec.mod));
        rec.special = isSpecial;
        primes_.push_back(std::move(rec));
    };

    addPrime(q0, false);
    for (u64 p : scaling)
        addPrime(p, false);
    for (u64 p : special)
        addPrime(p, true);
}

void
Context::buildConvTables()
{
    const u32 L = params_.multDepth;
    const u32 K = numSpecial_;

    auto buildConv = [&](const std::vector<u32> &src,
                         const std::vector<u32> &dst) {
        ConvTables t;
        t.sourceIdx = src;
        t.targetIdx = dst;
        BigInt prod = primeProduct(primes_, src);
        t.sHatInv.resize(src.size());
        t.sHatInvShoup.resize(src.size());
        t.sHatModT.resize(src.size() * dst.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            const Modulus &si = primes_[src[i]].mod;
            BigInt sHat = prod;
            u64 rem = sHat.divWord(si.value);
            FIDES_ASSERT(rem == 0);
            u64 inv = invMod(sHat.modWord(si), si);
            t.sHatInv[i] = inv;
            t.sHatInvShoup[i] = shoupPrecompute(inv, si.value);
            for (std::size_t d = 0; d < dst.size(); ++d) {
                const Modulus &td = primes_[dst[d]].mod;
                t.sHatModT[i * dst.size() + d] = sHat.modWord(td);
            }
        }
        return t;
    };

    std::vector<u32> specials;
    for (u32 k = 0; k < K; ++k)
        specials.push_back(specialIdx(k));

    // ModUp tables: per level, per active digit.
    modUp_.resize(L + 1);
    for (u32 l = 0; l <= L; ++l) {
        u32 digits = numDigits(l);
        modUp_[l].reserve(digits);
        for (u32 j = 0; j < digits; ++j) {
            std::vector<u32> src, dst;
            u32 lo = j * alpha_;
            u32 hi = std::min((j + 1) * alpha_, l + 1);
            for (u32 i = lo; i < hi; ++i)
                src.push_back(i);
            for (u32 i = 0; i <= l; ++i) {
                if (i < lo || i >= hi)
                    dst.push_back(i);
            }
            dst.insert(dst.end(), specials.begin(), specials.end());
            modUp_[l].push_back(buildConv(src, dst));
        }
    }

    // ModDown tables: P -> {q_0..q_l}.
    modDown_.reserve(L + 1);
    for (u32 l = 0; l <= L; ++l) {
        std::vector<u32> dst;
        for (u32 i = 0; i <= l; ++i)
            dst.push_back(i);
        modDown_.push_back(buildConv(specials, dst));
    }

    // P^{-1} and P modulo each q_i.
    BigInt bigP = primeProduct(primes_, specials);
    pInvModQ_.resize(L + 1);
    pInvModQShoup_.resize(L + 1);
    pModQ_.resize(L + 1);
    for (u32 i = 0; i <= L; ++i) {
        const Modulus &qi = primes_[i].mod;
        u64 pmod = bigP.modWord(qi);
        pModQ_[i] = pmod;
        pInvModQ_[i] = invMod(pmod, qi);
        pInvModQShoup_[i] = shoupPrecompute(pInvModQ_[i], qi.value);
    }

    // Rescale inverses q_l^{-1} mod q_i for i < l.
    qlInvModQ_.assign((L + 1) * (L + 1), 0);
    qlInvModQShoup_.assign((L + 1) * (L + 1), 0);
    for (u32 l = 1; l <= L; ++l) {
        for (u32 i = 0; i < l; ++i) {
            const Modulus &qi = primes_[i].mod;
            u64 inv = invMod(primes_[l].value() % qi.value, qi);
            qlInvModQ_[l * (L + 1) + i] = inv;
            qlInvModQShoup_[l * (L + 1) + i] =
                shoupPrecompute(inv, qi.value);
        }
    }
}

const CrtReconstructor &
Context::reconstructor(u32 level) const
{
    FIDES_ASSERT(level <= params_.multDepth);
    std::lock_guard<std::mutex> lock(lazyCacheMutex_);
    if (!crt_[level]) {
        std::vector<Modulus> mods;
        for (u32 i = 0; i <= level; ++i)
            mods.push_back(primes_[i].mod);
        crt_[level] = std::make_unique<CrtReconstructor>(mods);
    }
    return *crt_[level];
}

const std::vector<u32> &
Context::automorphPerm(u64 galoisElt) const
{
    // Mutex-guarded lazy cache: concurrent rotations may request new
    // permutations. Map nodes are stable, so the returned reference
    // stays valid across later insertions by other submitters.
    std::lock_guard<std::mutex> lock(lazyCacheMutex_);
    auto it = automorphCache_.find(galoisElt);
    if (it != automorphCache_.end())
        return it->second;

    const u64 twoN = 2 * n_;
    const u32 logN = params_.logN;
    FIDES_ASSERT((galoisElt & 1) == 1 && galoisElt < twoN);
    std::vector<u32> perm(n_);
    for (std::size_t j = 0; j < n_; ++j) {
        // Output slot j holds the evaluation at psi^(e_j * g), which
        // lives in input slot rev((e_j * g - 1) / 2).
        u64 e = 2 * bitReverse(j, logN) + 1;
        u64 eg = (e * galoisElt) % twoN;
        perm[j] = static_cast<u32>(bitReverse((eg - 1) / 2, logN));
    }
    auto [ins, ok] = automorphCache_.emplace(galoisElt, std::move(perm));
    (void)ok;
    return ins->second;
}

u64
Context::rotationGaloisElt(i64 k) const
{
    const u64 twoN = 2 * n_;
    const i64 half = static_cast<i64>(n_ / 2);
    i64 kk = ((k % half) + half) % half;
    u64 g = 1;
    for (i64 i = 0; i < kk; ++i)
        g = (g * 5) % twoN;
    return g;
}

void
Context::registerKeyBundle(u64 tenant,
                           std::shared_ptr<const KeyBundle> keys) const
{
    FIDES_ASSERT(keys != nullptr);
    std::lock_guard<std::mutex> lock(keyRegistryMutex_);
    keyRegistry_[tenant] = std::move(keys);
}

void
Context::unregisterKeyBundle(u64 tenant) const
{
    std::lock_guard<std::mutex> lock(keyRegistryMutex_);
    keyRegistry_.erase(tenant);
}

std::shared_ptr<const KeyBundle>
Context::keyBundle(u64 tenant) const
{
    std::lock_guard<std::mutex> lock(keyRegistryMutex_);
    auto it = keyRegistry_.find(tenant);
    return it == keyRegistry_.end() ? nullptr : it->second;
}

std::size_t
Context::keyBundleCount() const
{
    std::lock_guard<std::mutex> lock(keyRegistryMutex_);
    return keyRegistry_.size();
}

void
Context::setCurrent(Context *ctx)
{
    gCurrent = ctx;
}

Context &
Context::current()
{
    FIDES_ASSERT(gCurrent != nullptr);
    return *gCurrent;
}

} // namespace fideslib::ckks

/**
 * @file
 * The CKKS crypto-context: prime chain generation, per-prime NTT
 * tables, and every precomputed constant the server-side kernels
 * consume (paper Section III-E).
 *
 * Following the paper, contexts use a registry/singleton pattern: a
 * single "current" context mirrors the GPU constant-memory model, but
 * explicit Context references are passed through the API so that the
 * design stays testable.
 */

#pragma once

#include <atomic>
#include <complex>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckks/parameters.hpp"
#include "core/bigint.hpp"
#include "core/device.hpp"
#include "core/modarith.hpp"
#include "core/ntt.hpp"
#include "core/ntt_tune.hpp"
#include "core/rng.hpp"

namespace fideslib::ckks
{

namespace kernels
{
class GraphCapture;
class GraphReplay;
class PlanCache;
struct PlanCacheStats;
} // namespace kernels

struct KeyBundle;

/** One RNS prime with its NTT machinery. */
struct PrimeRecord
{
    Modulus mod;
    std::unique_ptr<NttTables> ntt;
    bool special = false;

    u64 value() const { return mod.value; }
};

/**
 * Base-conversion tables for one (level, digit) pair of the ModUp
 * operation, or for the fixed P -> Q ModDown direction.
 *
 * Conv implements Equation (1) of the paper: a limb-wise scaling by
 * sHatInv (the Qhat^-1 factors) followed by a modular matrix product
 * with sHatModT (the Qhat factors reduced modulo each target prime).
 */
struct ConvTables
{
    std::vector<u32> sourceIdx; //!< global prime indices of the source
    std::vector<u32> targetIdx; //!< global prime indices of the target
    std::vector<u64> sHatInv;   //!< [i]: (S/s_i)^{-1} mod s_i
    std::vector<u64> sHatInvShoup;
    //! sHatModT[i * targetCount + t]: (S/s_i) mod t_t
    std::vector<u64> sHatModT;
};

/**
 * Observability snapshot of the context's per-shape NTT schedule
 * table (Context::nttStats): the configured policy, whether the
 * autotuner actually ran, and -- in Auto mode -- the tuning outcome
 * of every (degree, limb-bucket) shape that was raced.
 */
struct NttStats
{
    NttSchedule configured = NttSchedule::Flat;
    bool tuned = false; //!< true iff the autotuner ran (Auto mode)
    std::vector<NttShapeStats> shapes;
};

/** CKKS crypto-context: owns primes, tables and configuration. */
class Context
{
  public:
    explicit Context(const Parameters &params);
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    const Parameters &params() const { return params_; }
    std::size_t degree() const { return n_; }
    u32 logDegree() const { return params_.logN; }
    u32 maxLevel() const { return params_.multDepth; }
    u32 numSpecial() const { return numSpecial_; }
    u32 dnum() const { return params_.dnum; }
    u32 digitSize() const { return alpha_; }
    long double defaultScale() const { return defaultScale_; }

    /**
     * Canonical scaling factor at each level (FLEXIBLEAUTO-style):
     * Delta_L = Delta and Delta_{l-1} = Delta_l^2 / q_l, the scale a
     * multiply-then-rescale chain lands on. The bootstrap and
     * polynomial-evaluation machinery keep every ciphertext on this
     * chain so branches of different depths can be added exactly.
     */
    long double levelScale(u32 l) const { return levelScales_[l]; }

    /** Global prime index: 0..L are q-limbs, L+1..L+K special. */
    const PrimeRecord &prime(u32 globalIdx) const
    {
        return primes_[globalIdx];
    }
    u32 specialIdx(u32 k) const { return params_.multDepth + 1 + k; }
    u32 numPrimes() const { return primes_.size(); }

    const Modulus &qMod(u32 i) const { return primes_[i].mod; }
    const Modulus &pMod(u32 k) const
    {
        return primes_[specialIdx(k)].mod;
    }

    /** Active key-switching digits at level l. */
    u32 numDigits(u32 level) const { return (level + alpha_) / alpha_; }

    /** ModUp conversion tables for (level, digit). */
    const ConvTables &modUpTables(u32 level, u32 digit) const
    {
        return modUp_[level][digit];
    }
    /** ModDown (P -> {q_0..q_level}) conversion tables. */
    const ConvTables &modDownTables(u32 level) const
    {
        return modDown_[level];
    }
    /** P^{-1} mod q_i. */
    u64 pInvModQ(u32 i) const { return pInvModQ_[i]; }
    u64 pInvModQShoup(u32 i) const { return pInvModQShoup_[i]; }
    /** P mod q_i (key generation). */
    u64 pModQ(u32 i) const { return pModQ_[i]; }

    /** q_l^{-1} mod q_i, used by Rescale when dropping limb l. */
    u64 qlInvModQ(u32 l, u32 i) const
    {
        return qlInvModQ_[l * (params_.multDepth + 1) + i];
    }
    u64 qlInvModQShoup(u32 l, u32 i) const
    {
        return qlInvModQShoup_[l * (params_.multDepth + 1) + i];
    }

    /** Per-coefficient CRT reconstructor over q_0..q_level. */
    const CrtReconstructor &reconstructor(u32 level) const;

    /**
     * Evaluation-domain permutation for the Galois automorphism
     * X -> X^g: out[j] = in[perm[j]]. Built lazily and cached.
     */
    const std::vector<u32> &automorphPerm(u64 galoisElt) const;

    /** Galois element for a left rotation by @p k slots. */
    u64 rotationGaloisElt(i64 k) const;
    /** Galois element of complex conjugation (X -> X^{2N-1}). */
    u64 conjugateGaloisElt() const { return 2 * n_ - 1; }

    /** Deterministic context-wide randomness source. */
    Prng &prng() const { return prng_; }

    // Execution topology. ----------------------------------------------
    /**
     * The simulated devices and streams this context executes on. The
     * set is execution state, not logical context state, so kernels
     * holding a `const Context &` may still launch work on it.
     */
    DeviceSet &devices() const { return *devices_; }
    /**
     * The stream subset the CALLING THREAD dispatches onto: the
     * thread's active lease (serving-layer submitters install one via
     * setThreadLease), or the context's whole-set default. The kernel
     * layer routes every stream pick through this, so a request's
     * kernels stay on its submitter's leased streams (DESIGN.md 1.8).
     */
    const StreamLease &streamLease() const;
    /**
     * Installs @p lease as the calling thread's active lease (null
     * restores the whole-set default). The lease must outlive its
     * installation and view this context's DeviceSet; managed RAII-
     * style by serve::Server workers.
     */
    void setThreadLease(const StreamLease *lease) const;

    /**
     * Placement policy: the device owning global prime @p primeIdx.
     * The RNS base is split into contiguous blocks, one per device
     * (the paper's multi-GPU partitioning); matching limbs of two
     * polynomials therefore always land on the same device, and limb
     * batches over consecutive positions rarely cross a device
     * boundary.
     */
    Device &deviceFor(u32 primeIdx) const
    {
        const u32 total = params_.multDepth + 1 + numSpecial_;
        const u32 nd = devices_->numDevices();
        u32 d = static_cast<u32>(
            (static_cast<u64>(primeIdx) * nd) / total);
        return devices_->device(d < nd ? d : nd - 1);
    }

    // Backend execution configuration (mutable for the benches).
    // Every knob that shapes the launch schedule or the kernel bodies
    // invalidates the captured plans: a KernelGraph bakes in the
    // batch split, the fused-vs-unfused call sequence and the
    // arithmetic configuration of the op it recorded.
    u32 limbBatch() const { return limbBatch_; }
    void
    setLimbBatch(u32 b)
    {
        if (b != limbBatch_)
            invalidatePlans();
        limbBatch_ = b;
    }
    bool fusionEnabled() const { return fusion_; }
    void
    setFusion(bool f)
    {
        if (f != fusion_)
            invalidatePlans();
        fusion_ = f;
    }
    NttSchedule nttSchedule() const { return nttSchedule_; }
    /**
     * Switches the NTT schedule policy. A genuine change invalidates
     * every captured plan (replays re-run the kernel bodies, which
     * read the choice table, so stale plans would otherwise keep the
     * old arena reservations alive) and rebuilds the per-shape choice
     * table -- re-running the autotuner when switching to Auto.
     * Setting the already-active schedule is a no-op.
     */
    void setNttSchedule(NttSchedule s);
    /**
     * The tuned (or pinned) schedule choice for an op touching
     * @p limbs limbs. Limb counts bucket at powers of two; reads are
     * lock-free (the table is built in the constructor and rebuilt
     * only by setNttSchedule, and execution knobs are mutated only
     * between ops).
     */
    NttChoice nttChoiceFor(std::size_t limbs) const;
    /** The per-shape schedule table plus tuning measurements. */
    NttStats nttStats() const;
    ModMulKind modMulKind() const { return modMul_; }
    void
    setModMulKind(ModMulKind k)
    {
        if (k != modMul_)
            invalidatePlans();
        modMul_ = k;
    }

    // Hazard validator (check/check.hpp). -----------------------------
    /**
     * Sets the hazard-validation mode: the racecheck / declcheck /
     * initcheck / lifetime layer over the stream/event/plan stack
     * (DESIGN.md §1.11). Fatal panics on the first finding; Report
     * logs and counts. Process-wide -- the validator watches the
     * execution layer itself, not one context -- but kept here, next
     * to the other execution knobs, for discoverability. Also set at
     * Context construction from FIDES_VALIDATE ("report" = Report,
     * "0"/"off" = Off, anything else = Fatal).
     */
    static void setValidation(check::Mode m) { check::setMode(m); }
    static check::Mode validation() { return check::mode(); }

    // Capture-and-replay plan cache (graph.hpp). ----------------------
    /** False when the FIDES_NO_GRAPH environment variable is set (the
     *  escape hatch) or setGraphEnabled(false) was called: every op
     *  then runs the uncached dispatch path. */
    bool graphEnabled() const { return graphEnabled_; }
    void setGraphEnabled(bool e) { graphEnabled_ = e; }
    /** The per-context store of captured execution plans (thread-safe
     *  with single-flight capture; see PlanCache). */
    kernels::PlanCache &plans() const { return *plans_; }
    /**
     * Drops every cached plan AND releases their reserved MemPool
     * arenas (configuration changes call this). Must not race active
     * captures/replays: execution knobs are mutated only between ops,
     * never while a server is mid-request.
     */
    void invalidatePlans();
    /**
     * Per-key hit/miss counts plus the reserved-arena footprint
     * summed over the device pools -- the plan-cache observability
     * hook benches report so a key-space leak (a shape change
     * silently widening the key set) shows up in the committed
     * trajectory.
     */
    kernels::PlanCacheStats planStats() const;
    /**
     * How many submitters may replay a plan concurrently: plan
     * storage reserves (multiplier x footprint) arena blocks so
     * every concurrent replay is served from pool hits. Set by
     * serve::Server to its submitter count; 1 outside serving.
     */
    u32 planArenaMultiplier() const
    {
        return planArenaMultiplier_.load(std::memory_order_relaxed);
    }
    void setPlanArenaMultiplier(u32 m) const
    {
        planArenaMultiplier_.store(m ? m : 1,
                                   std::memory_order_relaxed);
    }
    /**
     * The CALLING THREAD's active capture/replay session, if any --
     * per-submitter execution state consulted by kernels::forBatches
     * and the base-conversion dispatcher. Thread-local (each serving
     * submitter captures or replays independently); managed
     * exclusively by kernels::PlanScope.
     */
    kernels::GraphCapture *captureSession() const;
    kernels::GraphReplay *replaySession() const;
    void setCaptureSession(kernels::GraphCapture *c) const;
    void setReplaySession(kernels::GraphReplay *r) const;

    // Per-shard key-bundle registry (serve::Router placement). --------
    /**
     * Installs @p keys as tenant @p tenant's evaluation keys ON THIS
     * CONTEXT. A sharded deployment gives every shard its own Context
     * (simulated GPU node), and a tenant's device-resident keys live
     * exactly on the shard that owns it: the Router re-materializes
     * them from the host-side registry form (adapter::HostKeyBundle)
     * when a tenant is placed or migrated. shared_ptr ownership lets
     * in-flight requests outlive an unregistration (they hold a ref;
     * the bundle dies when the last request retires). Thread-safe.
     */
    void registerKeyBundle(u64 tenant,
                           std::shared_ptr<const KeyBundle> keys) const;
    /** Drops tenant @p tenant's keys from this shard (migration's
     *  source-side step). No-op if absent. */
    void unregisterKeyBundle(u64 tenant) const;
    /** The registered bundle, or null -- the Server's per-request key
     *  lookup. */
    std::shared_ptr<const KeyBundle> keyBundle(u64 tenant) const;
    /** Registered tenants on this shard (observability). */
    std::size_t keyBundleCount() const;

    /**
     * Shard label for aggregate observability (metricsText): set by
     * serve::Router to "shard<i>"; empty outside sharded serving.
     */
    void setShardLabel(std::string label) { shardLabel_ = std::move(label); }
    const std::string &shardLabel() const { return shardLabel_; }

    // Registry (paper Section III-E singleton pattern). ----------------
    static void setCurrent(Context *ctx);
    static Context &current();

  private:
    void generatePrimeChain();
    void buildConvTables();
    /**
     * (Re)builds the per-shape NTT choice table from nttSchedule_:
     * non-Auto schedules pin one concrete variant for every shape;
     * Auto races the schedule zoo on the context's real prime tables
     * at power-of-two limb buckets (NttAutotuner) and records the
     * winners. Called from the constructor and setNttSchedule.
     */
    void configureNtt();

    Parameters params_;
    std::unique_ptr<DeviceSet> devices_;
    std::size_t n_;
    u32 alpha_;
    u32 numSpecial_;
    long double defaultScale_;

    std::vector<PrimeRecord> primes_;
    //! modUp_[level][digit]
    std::vector<std::vector<ConvTables>> modUp_;
    //! modDown_[level]
    std::vector<ConvTables> modDown_;
    std::vector<u64> pInvModQ_, pInvModQShoup_, pModQ_;
    std::vector<u64> qlInvModQ_, qlInvModQShoup_;
    std::vector<long double> levelScales_;

    // Tenant key registry (mutable: shards are handed around as
    // const Context& by the serving layer, but key placement is
    // execution state like the DeviceSet, not logical context state).
    mutable std::mutex keyRegistryMutex_;
    mutable std::map<u64, std::shared_ptr<const KeyBundle>> keyRegistry_;
    std::string shardLabel_;

    // Lazily built caches, mutex-guarded: rotations consult the
    // automorphism cache from every submitter thread (std::map nodes
    // are stable, so returned references outlive later insertions).
    mutable std::mutex lazyCacheMutex_;
    mutable std::vector<std::unique_ptr<CrtReconstructor>> crt_;
    mutable std::map<u64, std::vector<u32>> automorphCache_;
    mutable Prng prng_;

    u32 limbBatch_;
    bool fusion_;
    NttSchedule nttSchedule_;
    ModMulKind modMul_;

    // Per-shape NTT schedule table (configureNtt). nttBuckets_[b] is
    // the choice for limb counts in (2^{b-1}, 2^b]; pinnedNtt_ is the
    // uniform choice non-Auto schedules use for every shape.
    NttChoice pinnedNtt_;
    std::vector<NttChoice> nttBuckets_;
    std::vector<NttShapeStats> nttShapeStats_;
    bool nttTuned_ = false;

    bool graphEnabled_;
    std::unique_ptr<kernels::PlanCache> plans_;
    mutable std::atomic<u32> planArenaMultiplier_{1};
    std::unique_ptr<StreamLease> defaultLease_;
};

} // namespace fideslib::ckks

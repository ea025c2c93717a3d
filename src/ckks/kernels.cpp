#include "ckks/kernels.hpp"

#include "ckks/graph.hpp"
#include "core/logging.hpp"

namespace fideslib::ckks::kernels
{

namespace
{

constexpr u64 kWord = sizeof(u64);

/** Pointwise modular multiply with the configured reduction. */
inline void
mulSpan(const Context &ctx, u64 *dst, const u64 *a, const u64 *b,
        std::size_t n, const Modulus &m)
{
    if (ctx.modMulKind() == ModMulKind::Barrett) {
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = mulModBarrett(a[j], b[j], m);
    } else {
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = mulModNaive(a[j], b[j], m.value);
    }
}

inline void
mulAddSpan(const Context &ctx, u64 *acc, const u64 *a, const u64 *b,
           std::size_t n, const Modulus &m)
{
    if (ctx.modMulKind() == ModMulKind::Barrett) {
        for (std::size_t j = 0; j < n; ++j)
            acc[j] = addMod(acc[j], mulModBarrett(a[j], b[j], m),
                            m.value);
    } else {
        for (std::size_t j = 0; j < n; ++j)
            acc[j] = addMod(acc[j], mulModNaive(a[j], b[j], m.value),
                            m.value);
    }
}

/** The limb range of @p d that batch [lo, hi) touches. */
inline std::pair<std::size_t, std::size_t>
depRange(const Dep &d, std::size_t lo, std::size_t hi)
{
    if (d.whole)
        return {0, d.poly->numLimbs()};
    if (d.fixed)
        return {d.offset, d.offset + 1};
    return {d.offset + lo, d.offset + hi};
}

/** The validator's view of one batch's declared Dep list: the actual
 *  limb buffers [lo, hi) resolves to. Only built when validation is
 *  on. */
std::vector<check::DeclaredAccess>
declaredAccesses(const std::vector<Dep> &deps, std::size_t lo,
                 std::size_t hi)
{
    std::vector<check::DeclaredAccess> out;
    for (const Dep &d : deps) {
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i) {
            const Limb &l = p[i];
            out.push_back({l.data(), l.primeIdx(),
                           d.mode == Access::Write});
        }
    }
    return out;
}

/**
 * Enqueues on @p st the stream-side waits batch [lo, hi) needs:
 * writers wait on the last writer and all in-flight readers of each
 * touched limb, readers only on the last writer. Events already
 * signalled, recorded on this same stream (in-order), or duplicated
 * across operands are skipped.
 */
void
waitHazards(Stream &st, const std::vector<Dep> &deps,
            const std::vector<Event> &extraWaits, std::size_t lo,
            std::size_t hi)
{
    std::vector<Event> waits;
    auto consider = [&](const Event &e) {
        if (e.ready() || e.streamId() == st.id())
            return;
        for (const Event &w : waits)
            if (w.sameAs(e))
                return;
        waits.push_back(e);
    };
    for (const Dep &d : deps) {
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i) {
            consider(p[i].lastWrite());
            if (d.mode == Access::Write)
                for (const Event &r : p[i].lastReads())
                    consider(r);
        }
    }
    for (const Event &e : extraWaits)
        consider(e);
    for (const Event &e : waits)
        st.wait(e);
}

/**
 * Records batch [lo, hi)'s completion event onto the operand limbs.
 * Writes are noted before reads so that an operand appearing as both
 * (in-place kernels) ends up tracked as written-then-read.
 */
void
noteBatch(const std::vector<Dep> &deps, std::size_t lo,
          std::size_t hi, const Event &ev)
{
    for (const Dep &d : deps) {
        if (d.mode != Access::Write)
            continue;
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i)
            p[i].noteWrite(ev);
    }
    for (const Dep &d : deps) {
        if (d.mode != Access::Read)
            continue;
        const LimbPartition &p = d.poly->partition();
        auto [b, e] = depRange(d, lo, hi);
        for (std::size_t i = b; i < e; ++i)
            p[i].noteRead(ev);
    }
}

} // namespace

void
forBatches(const Context &ctx, std::size_t numLimbs,
           u64 bytesReadPerLimb, u64 bytesWrittenPerLimb,
           u64 intOpsPerLimb,
           const std::function<void(std::size_t, std::size_t)> &fn,
           const std::function<u32(std::size_t)> &primeAt,
           const std::vector<Dep> &deps,
           const std::vector<Event> &extraWaits,
           std::vector<Event> *recorded)
{
    if (numLimbs == 0)
        return;
    std::size_t batch = ctx.limbBatch() == 0 ? numLimbs : ctx.limbBatch();
    if (batch == 0)
        batch = 1;
    DeviceSet &devs = ctx.devices();
    const u32 numStreams = devs.numStreams();
    devs.noteLogicalKernel();

    // Replay mode: a captured plan supplies the batch split, stream
    // assignment and hazard edges; only the body is rebuilt (it
    // closes over THIS call's polynomials). No hazard derivation, no
    // stream picking, no per-launch dispatch overhead.
    if (GraphReplay *replay = ctx.replaySession()) {
        replay->replayCall(numLimbs, bytesReadPerLimb,
                           bytesWrittenPerLimb, intOpsPerLimb, fn,
                           deps, recorded);
        return;
    }
    // Capture mode: execute live below, additionally recording every
    // launch (stream, batch range, counters) and deriving the hazard
    // structure symbolically from the Dep list.
    GraphCapture *capture = ctx.captureSession();
    if (capture)
        capture->beginCall(numLimbs, deps);

    if (numStreams == 1) {
        // A single stream is in-order by construction: run the
        // batches eagerly on the submitting thread. No events are
        // recorded or waited (everything this kernel could depend on
        // already ran inline too; extraWaits are signalled for the
        // same reason).
        for (const Event &e : extraWaits)
            e.synchronize();
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            devs.stream(0).device().launch(
                (hi - lo) * bytesReadPerLimb,
                (hi - lo) * bytesWrittenPerLimb,
                (hi - lo) * intOpsPerLimb);
            if (capture) {
                capture->recordNode(0, lo, hi,
                                    (hi - lo) * bytesReadPerLimb,
                                    (hi - lo) * bytesWrittenPerLimb,
                                    (hi - lo) * intOpsPerLimb, deps,
                                    extraWaits, Event());
            }
            if (check::enabled()) {
                check::BodyScope scope(check::beginLaunch(
                    nullptr, declaredAccesses(deps, lo, hi)));
                fn(lo, hi);
            } else {
                fn(lo, hi);
            }
        }
        return;
    }

    // Asynchronous multi-stream dispatch. The body is copied once and
    // shared by every batch; each queued task also holds the operand
    // partitions alive so a temporary polynomial may be destroyed
    // while its kernels are still in flight.
    auto body = std::make_shared<
        const std::function<void(std::size_t, std::size_t)>>(fn);
    std::vector<std::shared_ptr<LimbPartition>> keep;
    keep.reserve(deps.size());
    for (const Dep &d : deps)
        keep.push_back(d.poly->partShared());

    // Launch accounting and the simulated CPU-side launch overhead
    // are paid on the submitting thread, in submission order, exactly
    // as a CUDA launch would. Batches of one kernel touch disjoint
    // limb ranges, so they execute concurrently; ordering against
    // OTHER kernels on the same operands is enforced stream-side by
    // the recorded events -- the host never joins here.
    auto launchOn = [&](Stream &st, std::size_t lo, std::size_t hi) {
        st.device().launch((hi - lo) * bytesReadPerLimb,
                           (hi - lo) * bytesWrittenPerLimb,
                           (hi - lo) * intOpsPerLimb);
        waitHazards(st, deps, extraWaits, lo, hi);
        if (check::enabled()) {
            // Registered after the hazard waits so the launch clock
            // includes the edges they established; the record rides
            // along in the task so the worker-side body accesses are
            // attributed to this launch.
            auto rec = check::beginLaunch(
                &st, declaredAccesses(deps, lo, hi));
            st.submit([body, keep, rec, lo, hi] {
                check::BodyScope scope(rec);
                (*body)(lo, hi);
            });
        } else {
            st.submit([body, keep, lo, hi] { (*body)(lo, hi); });
        }
        Event ev = st.record();
        noteBatch(deps, lo, hi, ev);
        if (capture) {
            capture->recordNode(st.id(), lo, hi,
                                (hi - lo) * bytesReadPerLimb,
                                (hi - lo) * bytesWrittenPerLimb,
                                (hi - lo) * intOpsPerLimb, deps,
                                extraWaits, ev);
        }
        if (recorded)
            recorded->push_back(std::move(ev));
    };

    // Stream picks go through the calling thread's lease (the whole
    // set outside serving): a request's kernels stay on its
    // submitter's streams, so concurrent requests never interleave on
    // one stream.
    const StreamLease &leased = ctx.streamLease();
    if (primeAt && devs.numDevices() > 1) {
        // Ownership-aware dispatch: split each batch at device
        // boundaries (rare, since placement is contiguous blocks of
        // the RNS base) and run every piece on a stream of the device
        // that owns its limbs, so work is accounted where the data
        // lives and kernels never touch a peer device's memory.
        std::vector<u32> rr(devs.numDevices(), 0);
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            std::size_t sub = lo;
            while (sub < hi) {
                const u32 d = ctx.deviceFor(primeAt(sub)).id();
                std::size_t end = sub + 1;
                while (end < hi && ctx.deviceFor(primeAt(end)).id() == d)
                    ++end;
                launchOn(leased.streamOfDevice(d, rr[d]++), sub, end);
                sub = end;
            }
        }
    } else {
        // Shape-free fallback: round-robin over the leased streams.
        u32 next = 0;
        for (std::size_t lo = 0; lo < numLimbs; lo += batch) {
            const std::size_t hi = std::min(numLimbs, lo + batch);
            Stream &st = leased.stream(next);
            next = (next + 1) % leased.numStreams();
            launchOn(st, lo, hi);
        }
    }
}

void
addInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("addInto");
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    const LimbPartition &bp = b.partition();
    forBatches(ctx, a.numLimbs(), 2 * n * kWord, n * kWord, n,
               [&ctx, &ap, &bp, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            FIDES_ASSERT(ap[i].primeIdx() == bp[i].primeIdx());
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            const u64 *y = bp[i].read();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = addMod(x[j], y[j], p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); },
       {wr(a), rd(b)});
}

void
subInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("subInto");
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    const LimbPartition &bp = b.partition();
    forBatches(ctx, a.numLimbs(), 2 * n * kWord, n * kWord, n,
               [&ctx, &ap, &bp, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            FIDES_ASSERT(ap[i].primeIdx() == bp[i].primeIdx());
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            const u64 *y = bp[i].read();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = subMod(x[j], y[j], p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); },
       {wr(a), rd(b)});
}

void
negate(RNSPoly &a)
{
    check::ScopedLabel lbl("negate");
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = negMod(x[j], p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
mulInto(RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("mulInto");
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    const LimbPartition &bp = b.partition();
    forBatches(ctx, a.numLimbs(), 2 * n * kWord, n * kWord, 5 * n,
               [&ctx, &ap, &bp, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            FIDES_ASSERT(ap[i].primeIdx() == bp[i].primeIdx());
            const Modulus &m = ctx.prime(ap[i].primeIdx()).mod;
            u64 *x = ap[i].write();
            mulSpan(ctx, x, x, bp[i].read(), n, m);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); },
       {wr(a), rd(b)});
}

void
mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("mul");
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() <= a.numLimbs() &&
                 out.numLimbs() <= b.numLimbs());
    out.setFormat(Format::Eval);
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &op = out.partition();
    const LimbPartition &ap = a.partition();
    const LimbPartition &bp = b.partition();
    forBatches(ctx, out.numLimbs(), 2 * n * kWord, n * kWord, 5 * n,
               [&ctx, &op, &ap, &bp, n](std::size_t lo,
                                        std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const Modulus &m = ctx.prime(op[i].primeIdx()).mod;
            mulSpan(ctx, op[i].write(), ap[i].read(), bp[i].read(), n,
                    m);
        }
    }, [&op](std::size_t i) { return op[i].primeIdx(); },
       {wr(out), rd(a), rd(b)});
}

void
mulAddInto(RNSPoly &acc, const RNSPoly &a, const RNSPoly &b)
{
    check::ScopedLabel lbl("mulAddInto");
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(acc.numLimbs() <= a.numLimbs() &&
                 acc.numLimbs() <= b.numLimbs());
    const auto &ctx = acc.context();
    const std::size_t n = ctx.degree();
    LimbPartition &cp = acc.partition();
    const LimbPartition &ap = a.partition();
    const LimbPartition &bp = b.partition();
    forBatches(ctx, acc.numLimbs(), 3 * n * kWord, n * kWord, 6 * n,
               [&ctx, &cp, &ap, &bp, n](std::size_t lo,
                                        std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const Modulus &m = ctx.prime(cp[i].primeIdx()).mod;
            mulAddSpan(ctx, cp[i].write(), ap[i].read(), bp[i].read(),
                       n, m);
        }
    }, [&cp](std::size_t i) { return cp[i].primeIdx(); },
       {wr(acc), rd(a), rd(b)});
}

void
scalarMulInto(RNSPoly &a, const std::vector<u64> &scalar)
{
    check::ScopedLabel lbl("scalarMulInto");
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    // The scalar vector is caller stack state: copy it into the body.
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, 3 * n,
               [&ctx, &ap, n, scalar](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 w = scalar[i];
            u64 ws = shoupPrecompute(w, p);
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = mulModShoup(x[j], w, ws, p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
scalarAddInto(RNSPoly &a, const std::vector<u64> &scalar)
{
    check::ScopedLabel lbl("scalarAddInto");
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n, scalar](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 c = scalar[i];
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = addMod(x[j], c, p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
scalarSubFrom(RNSPoly &a, const std::vector<u64> &scalar)
{
    check::ScopedLabel lbl("scalarSubFrom");
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n, scalar](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 c = scalar[i];
            u64 *x = ap[i].write();
            for (std::size_t j = 0; j < n; ++j)
                x[j] = subMod(c, x[j], p);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
nttLimb(const Context &ctx, u64 *data, u32 primeIdx,
        std::size_t shapeLimbs)
{
    const NttTables &t = *ctx.prime(primeIdx).ntt;
    const NttChoice c = ctx.nttChoiceFor(shapeLimbs);
    nttForwardVariant(data, t, c.fwd, c.fwdColBlock);
}

void
inttLimb(const Context &ctx, u64 *data, u32 primeIdx,
         std::size_t shapeLimbs)
{
    const NttTables &t = *ctx.prime(primeIdx).ntt;
    const NttChoice c = ctx.nttChoiceFor(shapeLimbs);
    nttInverseVariant(data, t, c.inv, c.invColBlock);
}

/**
 * Modelled off-chip traffic of one NTT limb under variant @p v: the
 * hierarchical 2D schedules touch every element in exactly two passes
 * (four memory accesses per element, paper Figure 3); a flat radix-2
 * schedule spills one pass per pair of stages once the limb exceeds
 * on-chip memory, and the radix-4 schedule halves that by keeping
 * four elements in registers across two stages.
 */
static u64
nttPassesPerLimb(const Context &ctx, NttVariant v)
{
    switch (v) {
    case NttVariant::Hierarchical:
    case NttVariant::BlockedHier:
        return 2;
    case NttVariant::Radix4:
        return std::max<u64>(2, ctx.logDegree() / 4);
    case NttVariant::Flat:
    case NttVariant::FusedLast:
        break;
    }
    return std::max<u64>(2, ctx.logDegree() / 2);
}

void
toEval(RNSPoly &a)
{
    check::ScopedLabel lbl("toEval");
    FIDES_ASSERT(a.format() == Format::Coeff);
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    const u64 logN = ctx.logDegree();
    const std::size_t limbs = a.numLimbs();
    // Resolve the tuned schedule once per op, not once per limb.
    const NttChoice c = ctx.nttChoiceFor(limbs);
    const u64 passes = nttPassesPerLimb(ctx, c.fwd);
    LimbPartition &ap = a.partition();
    forBatches(ctx, limbs, passes * n * kWord,
               passes * n * kWord, 5 * n * logN,
               [&ctx, &ap, c](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            nttForwardVariant(ap[i].write(),
                              *ctx.prime(ap[i].primeIdx()).ntt,
                              c.fwd, c.fwdColBlock);
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
    a.setFormat(Format::Eval);
}

void
toCoeff(RNSPoly &a)
{
    check::ScopedLabel lbl("toCoeff");
    FIDES_ASSERT(a.format() == Format::Eval);
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    const u64 logN = ctx.logDegree();
    const std::size_t limbs = a.numLimbs();
    const NttChoice c = ctx.nttChoiceFor(limbs);
    const u64 passes = nttPassesPerLimb(ctx, c.inv);
    LimbPartition &ap = a.partition();
    forBatches(ctx, limbs, passes * n * kWord,
               passes * n * kWord, 5 * n * logN,
               [&ctx, &ap, c](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            nttInverseVariant(ap[i].write(),
                              *ctx.prime(ap[i].primeIdx()).ntt,
                              c.inv, c.invColBlock);
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
    a.setFormat(Format::Coeff);
}

void
automorph(RNSPoly &out, const RNSPoly &in, const std::vector<u32> &perm)
{
    check::ScopedLabel lbl("automorph");
    FIDES_ASSERT(in.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() == in.numLimbs());
    const auto &ctx = in.context();
    const std::size_t n = ctx.degree();
    out.setFormat(Format::Eval);
    LimbPartition &op = out.partition();
    const LimbPartition &ip = in.partition();
    // perm lives in the Context's automorphism cache (node-stable).
    const u32 *pm = perm.data();
    forBatches(ctx, in.numLimbs(), n * kWord, n * kWord, 0,
               [&op, &ip, pm, n](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            const u64 *src = ip[i].read();
            u64 *dst = op[i].write();
            for (std::size_t j = 0; j < n; ++j)
                dst[j] = src[pm[j]];
        }
    }, [&ip](std::size_t i) { return ip[i].primeIdx(); },
       {wr(out), rd(in)});
}

void
mulByMonomial(RNSPoly &a, u64 k)
{
    check::ScopedLabel lbl("mulByMonomial");
    FIDES_ASSERT(a.format() == Format::Coeff);
    const auto &ctx = a.context();
    const std::size_t n = ctx.degree();
    k %= 2 * n;
    if (k == 0)
        return;
    LimbPartition &ap = a.partition();
    forBatches(ctx, a.numLimbs(), n * kWord, n * kWord, n,
               [&ctx, &ap, n, k](std::size_t lo, std::size_t hi) {
        // Per-batch scratch: batches run on concurrent streams.
        std::vector<u64> tmp(n);
        for (std::size_t i = lo; i < hi; ++i) {
            u64 p = ctx.prime(ap[i].primeIdx()).value();
            u64 *x = ap[i].write();
            // X^j * X^k = sign * X^((j+k) mod n), negacyclic wrap.
            for (std::size_t j = 0; j < n; ++j) {
                std::size_t jj = j + static_cast<std::size_t>(k);
                bool flip = (jj / n) & 1;
                jj %= n;
                tmp[jj] = flip ? negMod(x[j], p) : x[j];
            }
            std::copy(tmp.begin(), tmp.end(), x);
        }
    }, [&ap](std::size_t i) { return ap[i].primeIdx(); }, {wr(a)});
}

void
switchModulusLimb(const Context &ctx, const u64 *src, u64 srcPrime,
                  u64 *dst, u32 dstPrimeIdx)
{
    const Modulus &dm = ctx.prime(dstPrimeIdx).mod;
    const std::size_t n = ctx.degree();
    const u64 half = srcPrime >> 1;
    if (dm.value >= srcPrime) {
        const u64 diff = (dm.value - srcPrime) % dm.value;
        for (std::size_t j = 0; j < n; ++j) {
            // Recentre: values above q/2 represent negatives.
            u64 v = src[j];
            dst[j] = v > half ? addMod(v, diff, dm.value)
                              : barrettReduce64(v, dm);
        }
    } else {
        for (std::size_t j = 0; j < n; ++j) {
            u64 v = src[j];
            if (v > half) {
                // v - q mod p = v mod p - q mod p
                u64 r = barrettReduce64(v, dm);
                u64 qr = barrettReduce64(srcPrime, dm);
                dst[j] = subMod(r, qr, dm.value);
            } else {
                dst[j] = barrettReduce64(v, dm);
            }
        }
    }
}

// --- FusedChain -------------------------------------------------------

/**
 * One recorded element-wise operation. Polynomial operands are stored
 * twice: the RNSPoly pointer feeds the Dep list built at run() (and
 * must stay alive until then), the LimbPartition pointer is what the
 * kernel body dereferences -- heap-stable and kept alive past run()
 * by the Dep keep-alives.
 */
struct FusedChain::Op
{
    enum class Kind : unsigned char
    {
        Mul,
        MulAdd,
        Add,
        Sub,
        ScalarMul,
        Gather,
        GatherMulAcc,
        SwitchModulusExt,
        NttExt,
        SubScalarMulExt,
    };

    explicit Op(Kind k) : kind(k) {}

    Kind kind;
    bool accumulate = false;           //!< GatherMulAcc
    RNSPoly *outPoly = nullptr;        //!< written polynomial
    const RNSPoly *aPoly = nullptr;    //!< first input
    const RNSPoly *bPoly = nullptr;    //!< second input / key
    LimbPartition *out = nullptr;
    const LimbPartition *a = nullptr;
    const LimbPartition *b = nullptr;
    const u32 *perm = nullptr;         //!< automorphism gather
    std::vector<u64> s0, s1;           //!< per-limb scalar constants
    ExtScratch ext;                    //!< per-limb host scratch
    ExtFixed fixed;                    //!< shared fixed source
    u64 srcPrime = 0;                  //!< SwitchModulusExt

    bool readsOut() const
    {
        switch (kind) {
        case Kind::MulAdd:
        case Kind::Add:
        case Kind::Sub:
        case Kind::ScalarMul:
            return true;
        case Kind::GatherMulAcc:
            return accumulate;
        default:
            return false;
        }
    }

    /** Per-limb integer-op model, matching the standalone kernels. */
    u64
    intOpsPerLimb(std::size_t n, u32 logN) const
    {
        switch (kind) {
        case Kind::Mul: return 5 * n;
        case Kind::MulAdd: return 6 * n;
        case Kind::Add:
        case Kind::Sub: return n;
        case Kind::ScalarMul: return 3 * n;
        case Kind::Gather: return 0;
        case Kind::GatherMulAcc: return accumulate ? 6 * n : 5 * n;
        case Kind::SwitchModulusExt: return 2 * n;
        case Kind::NttExt: return 5 * n * logN;
        case Kind::SubScalarMulExt: return 4 * n;
        }
        return 0;
    }
};

FusedChain::FusedChain(const Context &ctx) : ctx_(&ctx) {}

FusedChain::~FusedChain()
{
    // A chain destroyed with recorded ops was never run(): the caller
    // dropped a kernel sequence on the floor (early return, missing
    // trailing .run()). Catch the misuse here, where the bug is.
    FIDES_ASSERT(ops_.empty());
}

namespace
{

/** Executes one recorded op on limb @p i. @p shape supplies the
 *  chain's position -> prime mapping for the external-scratch ops. */
inline void
runOpOnLimb(const Context &ctx, const FusedChain::Op &op,
            const LimbPartition &shape, std::size_t i, std::size_t n)
{
    using Kind = FusedChain::Op::Kind;
    switch (op.kind) {
    case Kind::Mul: {
        const Modulus &m = ctx.prime((*op.out)[i].primeIdx()).mod;
        mulSpan(ctx, (*op.out)[i].write(), (*op.a)[i].read(),
                (*op.b)[i].read(), n, m);
        break;
    }
    case Kind::MulAdd: {
        const Modulus &m = ctx.prime((*op.out)[i].primeIdx()).mod;
        mulAddSpan(ctx, (*op.out)[i].write(), (*op.a)[i].read(),
                   (*op.b)[i].read(), n, m);
        break;
    }
    case Kind::Add: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        u64 *x = (*op.out)[i].write();
        const u64 *y = (*op.b)[i].read();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = addMod(x[j], y[j], p);
        break;
    }
    case Kind::Sub: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        u64 *x = (*op.out)[i].write();
        const u64 *y = (*op.b)[i].read();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = subMod(x[j], y[j], p);
        break;
    }
    case Kind::ScalarMul: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        const u64 w = op.s0[i];
        const u64 ws = shoupPrecompute(w, p);
        u64 *x = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            x[j] = mulModShoup(x[j], w, ws, p);
        break;
    }
    case Kind::Gather: {
        const u64 *src = (*op.a)[i].read();
        u64 *dst = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            dst[j] = src[op.perm[j]];
        break;
    }
    case Kind::GatherMulAcc: {
        // Limb of global prime gi in the full-basis key: q-limb gi
        // sits at position gi, special limb k at L+1+k -- both equal
        // the global index, so the key is indexed by gi directly.
        const u32 gi = (*op.out)[i].primeIdx();
        const Modulus &m = ctx.prime(gi).mod;
        const u64 *kp = (*op.b)[gi].read();
        const u64 *s = (*op.a)[i].read();
        u64 *x = (*op.out)[i].write();
        const bool barrett = ctx.modMulKind() == ModMulKind::Barrett;
        const u32 *pm = op.perm;
        for (std::size_t j = 0; j < n; ++j) {
            const u64 sj = pm ? s[pm[j]] : s[j];
            const u64 prod = barrett ? mulModBarrett(sj, kp[j], m)
                                     : mulModNaive(sj, kp[j], m.value);
            x[j] = op.accumulate ? addMod(x[j], prod, m.value) : prod;
        }
        break;
    }
    case Kind::SwitchModulusExt:
        switchModulusLimb(ctx, op.fixed->data(), op.srcPrime,
                          (*op.ext)[i].data(), shape[i].primeIdx());
        break;
    case Kind::NttExt:
        nttLimb(ctx, (*op.ext)[i].data(), shape[i].primeIdx(),
                shape.size());
        break;
    case Kind::SubScalarMulExt: {
        const u64 p = ctx.prime((*op.out)[i].primeIdx()).value();
        const u64 w = op.s0[i];
        const u64 ws = op.s1[i];
        const u64 *x = (*op.a)[i].read();
        const u64 *t = (*op.ext)[i].data();
        u64 *o = (*op.out)[i].write();
        for (std::size_t j = 0; j < n; ++j)
            o[j] = mulModShoup(subMod(x[j], t[j], p), w, ws, p);
        break;
    }
    }
}

/** Unfused per-op traffic (words per limb), matching the standalone
 *  kernels of the no-fusion backend. */
inline std::pair<u64, u64>
unfusedTraffic(const FusedChain::Op &op)
{
    using Kind = FusedChain::Op::Kind;
    switch (op.kind) {
    case Kind::Mul: return {2, 1};
    case Kind::MulAdd: return {3, 1};
    case Kind::Add:
    case Kind::Sub: return {2, 1};
    case Kind::ScalarMul: return {1, 1};
    case Kind::Gather: return {1, 1};
    case Kind::GatherMulAcc:
        return {op.accumulate ? 3u : 2u, 1};
    case Kind::SwitchModulusExt: return {1, 1};
    case Kind::NttExt: return {2, 2};
    case Kind::SubScalarMulExt: return {2, 1};
    }
    return {0, 0};
}

} // namespace

FusedChain &
FusedChain::mul(RNSPoly &out, const RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() <= a.numLimbs() &&
                 out.numLimbs() <= b.numLimbs());
    out.setFormat(Format::Eval);
    Op op{Op::Kind::Mul};
    op.outPoly = &out;
    op.aPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::mulAdd(RNSPoly &acc, const RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.format() == Format::Eval &&
                 b.format() == Format::Eval);
    FIDES_ASSERT(acc.numLimbs() <= a.numLimbs() &&
                 acc.numLimbs() <= b.numLimbs());
    Op op{Op::Kind::MulAdd};
    op.outPoly = &acc;
    op.aPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::add(RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    Op op{Op::Kind::Add};
    op.outPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::sub(RNSPoly &a, const RNSPoly &b)
{
    FIDES_ASSERT(a.numLimbs() <= b.numLimbs());
    Op op{Op::Kind::Sub};
    op.outPoly = &a;
    op.bPoly = &b;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::scalarMul(RNSPoly &a, std::vector<u64> scalar)
{
    FIDES_ASSERT(scalar.size() >= a.numLimbs());
    Op op{Op::Kind::ScalarMul};
    op.outPoly = &a;
    op.s0 = std::move(scalar);
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::gather(RNSPoly &out, const RNSPoly &in,
                   const std::vector<u32> &perm)
{
    FIDES_ASSERT(in.format() == Format::Eval);
    FIDES_ASSERT(out.numLimbs() == in.numLimbs());
    out.setFormat(Format::Eval);
    Op op{Op::Kind::Gather};
    op.outPoly = &out;
    op.aPoly = &in;
    op.perm = perm.data(); // Context's automorphism cache, node-stable
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::gatherMulAcc(RNSPoly &acc, const RNSPoly &src,
                         const RNSPoly &key,
                         const std::vector<u32> *perm, bool accumulate)
{
    FIDES_ASSERT(src.format() == Format::Eval);
    FIDES_ASSERT(acc.numLimbs() <= src.numLimbs());
    Op op{Op::Kind::GatherMulAcc};
    op.accumulate = accumulate;
    op.outPoly = &acc;
    op.aPoly = &src;
    op.bPoly = &key;
    op.perm = perm ? perm->data() : nullptr;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::switchModulusExt(ExtScratch dst, ExtFixed src,
                             u64 srcPrime)
{
    Op op{Op::Kind::SwitchModulusExt};
    op.ext = std::move(dst);
    op.fixed = std::move(src);
    op.srcPrime = srcPrime;
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::nttExt(ExtScratch buf)
{
    Op op{Op::Kind::NttExt};
    op.ext = std::move(buf);
    ops_.push_back(std::move(op));
    return *this;
}

FusedChain &
FusedChain::subScalarMulExt(RNSPoly &out, const RNSPoly &x,
                            ExtScratch t, std::vector<u64> w,
                            std::vector<u64> wShoup)
{
    FIDES_ASSERT(out.numLimbs() <= x.numLimbs());
    Op op{Op::Kind::SubScalarMulExt};
    op.outPoly = &out;
    op.aPoly = &x;
    op.ext = std::move(t);
    op.s0 = std::move(w);
    op.s1 = std::move(wShoup);
    ops_.push_back(std::move(op));
    return *this;
}

void
FusedChain::run(const std::vector<Event> &extraWaits)
{
    if (ops_.empty())
        return;
    check::ScopedLabel lbl("fused_chain");
    const Context &ctx = *ctx_;
    const std::size_t n = ctx.degree();
    const u32 logN = ctx.logDegree();

    // Resolve partitions now: the body must never touch an RNSPoly
    // (stack object), only its heap-stable partition.
    for (Op &op : ops_) {
        if (op.outPoly)
            op.out = &op.outPoly->partition();
        if (op.aPoly)
            op.a = &op.aPoly->partition();
        if (op.bPoly)
            op.b = &op.bPoly->partition();
    }

    // The chain's shape -- limb count and position -> prime mapping --
    // comes from the first written polynomial.
    const RNSPoly *shapePoly = nullptr;
    for (const Op &op : ops_) {
        if (op.outPoly) {
            shapePoly = op.outPoly;
            break;
        }
    }
    FIDES_ASSERT(shapePoly != nullptr);
    const LimbPartition *shape = &shapePoly->partition();
    const std::size_t numLimbs = shape->size();
    // Every written polynomial must span the chain's shape exactly:
    // a smaller output would silently truncate the ops after it, a
    // larger one would be left partially unwritten.
    for (const Op &op : ops_)
        FIDES_ASSERT(!op.out || op.out->size() == numLimbs);
    auto primeAt = [shape](std::size_t i) {
        return (*shape)[i].primeIdx();
    };
    // Ext-only ops carry no Dep on the shape polynomial, so their
    // queued bodies hold this keep-alive to pin the prime mapping.
    auto keepShape = shapePoly->partShared();

    if (!ctx.fusionEnabled()) {
        // Unfused backend: one logical kernel per recorded op, with
        // the per-op traffic of the standalone kernels. Polynomial
        // hazards chain through the Dep events as usual; external
        // scratch has no Dep tracking, so ops touching it are chained
        // serially through their recorded events (the structure of
        // the pre-fusion Rescale/ModDown pipelines).
        std::vector<Event> pending = extraWaits;
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            // ops_ outlives the queued bodies: run() is called once
            // and the chain may not be reused, so moving the op list
            // into a shared_ptr keeps it alive for the last batch.
            auto ops = std::make_shared<const std::vector<Op>>(
                std::vector<Op>(1, ops_[k]));
            const Op &op = ops_[k];
            auto [r, w] = unfusedTraffic(op);
            std::vector<Dep> deps;
            deps.reserve(3);
            if (op.outPoly)
                deps.push_back(wr(*op.outPoly));
            if (op.aPoly)
                deps.push_back(rd(*op.aPoly));
            if (op.bPoly) {
                if (op.kind == Op::Kind::GatherMulAcc)
                    deps.push_back(rdWhole(*op.bPoly));
                else
                    deps.push_back(rd(*op.bPoly));
            }
            const bool touchesExt = op.ext || op.fixed;
            std::vector<Event> recorded;
            forBatches(ctx, numLimbs, r * n * kWord, w * n * kWord,
                       op.intOpsPerLimb(n, logN),
                       [&ctx, ops, shape, keepShape, n](std::size_t lo,
                                                        std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    runOpOnLimb(ctx, (*ops)[0], *shape, i, n);
            }, primeAt, deps, touchesExt ? pending : extraWaits,
               touchesExt ? &recorded : nullptr);
            if (touchesExt && !recorded.empty())
                pending = std::move(recorded);
        }
        ops_.clear();
        return;
    }

    // Fused submission: ONE logical kernel for the whole chain.
    //
    // Counters: integer ops are summed over the chain; memory traffic
    // is single-pass -- each distinct operand is counted once (reads
    // only when first touched as a read: an operand produced earlier
    // in the chain, or chain-internal scratch, stays on-chip).
    u64 intOps = 0;
    u64 readsPerLimb = 0, writesPerLimb = 0;
    std::vector<const void *> written, readCounted;
    auto seen = [](const std::vector<const void *> &v, const void *p) {
        for (const void *q : v)
            if (q == p)
                return true;
        return false;
    };
    auto countRead = [&](const void *slot) {
        if (slot && !seen(written, slot) && !seen(readCounted, slot)) {
            readCounted.push_back(slot);
            ++readsPerLimb;
        }
    };
    auto countWrite = [&](const void *slot, bool isScratch) {
        if (slot && !seen(written, slot)) {
            written.push_back(slot);
            if (!isScratch)
                ++writesPerLimb;
        }
    };
    for (const Op &op : ops_) {
        intOps += op.intOpsPerLimb(n, logN);
        countRead(op.a);
        countRead(op.b);
        countRead(op.fixed.get());
        if (op.kind == Op::Kind::NttExt ||
            op.kind == Op::Kind::SubScalarMulExt)
            countRead(op.ext.get());
        if (op.readsOut())
            countRead(op.out);
        if (op.out)
            countWrite(op.out, false);
        if (op.ext && op.kind != Op::Kind::SubScalarMulExt)
            countWrite(op.ext.get(), true);
    }

    // One Dep per distinct polynomial: Write wherever the chain
    // writes it (Write hazards cover read-modify-write), Read
    // otherwise; key material is a whole-poly read.
    std::vector<Dep> deps;
    auto depFor = [&deps](const RNSPoly *p) -> Dep * {
        for (Dep &d : deps)
            if (d.poly == p)
                return &d;
        return nullptr;
    };
    for (const Op &op : ops_) {
        if (op.outPoly) {
            if (Dep *d = depFor(op.outPoly))
                d->mode = Access::Write;
            else
                deps.push_back(wr(*op.outPoly));
        }
        if (op.aPoly && !depFor(op.aPoly))
            deps.push_back(rd(*op.aPoly));
        if (op.bPoly && !depFor(op.bPoly)) {
            if (op.kind == Op::Kind::GatherMulAcc)
                deps.push_back(rdWhole(*op.bPoly));
            else
                deps.push_back(rd(*op.bPoly));
        }
    }

    auto ops =
        std::make_shared<const std::vector<Op>>(std::move(ops_));
    forBatches(ctx, numLimbs, readsPerLimb * n * kWord,
               writesPerLimb * n * kWord, intOps,
               [&ctx, ops, shape, keepShape, n](std::size_t lo,
                                                std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            for (const Op &op : *ops)
                runOpOnLimb(ctx, op, *shape, i, n);
    }, primeAt, deps, extraWaits);
    ops_.clear();
}

} // namespace fideslib::ckks::kernels

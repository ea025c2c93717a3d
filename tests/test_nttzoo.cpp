/**
 * @file
 * Context-level tests of the NTT schedule zoo: the per-shape choice
 * table (pinned and autotuned), the FIDES_NTT_SCHEDULE /
 * FIDES_NTT_TUNE_TRIALS escape hatches, and the headline property
 * that `Auto` is a pure dispatch optimization -- it must never change
 * a single ciphertext bit relative to the Flat baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"

namespace fideslib::ckks
{
namespace
{

/** Scoped setenv/unsetenv (tests must not leak environment). */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const char *n, const char *v) : name(n)
    {
        ::setenv(n, v, 1);
    }
    ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

Parameters
zooParams(NttSchedule s)
{
    Parameters p = Parameters::testSmall();
    p.nttSchedule = s;
    return p;
}

/** Context + keys + a deterministic hot-op pipeline. */
struct Fixture
{
    Context ctx;
    KeyGen keygen;
    KeyBundle keys;
    Evaluator eval;
    Encoder enc;
    Encryptor encr;

    explicit Fixture(const Parameters &p)
        : ctx(p), keygen(ctx), keys(keygen.makeBundle({1})),
          eval(ctx, keys), enc(ctx), encr(ctx, keys.pk)
    {}

    Ciphertext
    encrypt(double seed)
    {
        const u32 slots = static_cast<u32>(ctx.degree() / 2);
        std::vector<std::complex<double>> z(slots);
        for (u32 i = 0; i < slots; ++i)
            z[i] = {std::cos(seed * (i + 1)), std::sin(seed + i)};
        return encr.encrypt(enc.encode(z, slots, ctx.maxLevel()));
    }

    /** Multiply + rescale + rotate + square: every NTT call site
     *  (toEval/toCoeff, ModUp, ModDown, Rescale) gets exercised. */
    Ciphertext
    pipeline()
    {
        auto a = encrypt(0.41);
        auto b = encrypt(0.59);
        auto m = eval.multiply(a, b);
        eval.rescaleInPlace(m);
        auto r = eval.rotate(m, 1);
        eval.addInPlace(r, m);
        auto s = eval.square(r);
        eval.rescaleInPlace(s);
        return s;
    }
};

void
expectPolyEqual(const RNSPoly &want, const RNSPoly &got,
                const char *what)
{
    want.syncHost();
    got.syncHost();
    ASSERT_EQ(want.numLimbs(), got.numLimbs()) << what;
    for (std::size_t i = 0; i < want.numLimbs(); ++i) {
        ASSERT_EQ(0, std::memcmp(want.limb(i).data(),
                                 got.limb(i).data(),
                                 want.limb(i).size() * sizeof(u64)))
            << what << ": limb " << i << " differs";
    }
}

TEST(NttZooContext, PinnedSchedulesExposeUniformChoiceTable)
{
    const std::pair<NttSchedule, NttVariant> pins[] = {
        {NttSchedule::Flat, NttVariant::Flat},
        {NttSchedule::Hierarchical, NttVariant::Hierarchical},
        {NttSchedule::Radix4, NttVariant::Radix4},
        {NttSchedule::BlockedHier, NttVariant::BlockedHier},
        {NttSchedule::FusedLast, NttVariant::FusedLast},
    };
    Context ctx(zooParams(NttSchedule::Flat));
    for (auto [sched, variant] : pins) {
        ctx.setNttSchedule(sched);
        const NttStats stats = ctx.nttStats();
        EXPECT_EQ(stats.configured, sched);
        EXPECT_FALSE(stats.tuned);
        EXPECT_TRUE(stats.shapes.empty());
        for (std::size_t limbs : {1u, 3u, 7u, 64u, 1000u}) {
            const NttChoice c = ctx.nttChoiceFor(limbs);
            EXPECT_EQ(c.fwd, variant) << "limbs=" << limbs;
            EXPECT_EQ(c.inv, variant) << "limbs=" << limbs;
        }
    }
}

TEST(NttZooContext, AutoTunesEveryPowerOfTwoBucket)
{
    ScopedEnv trials("FIDES_NTT_TUNE_TRIALS", "1");
    Context ctx(zooParams(NttSchedule::Auto));
    const NttStats stats = ctx.nttStats();
    EXPECT_EQ(stats.configured, NttSchedule::Auto);
    EXPECT_TRUE(stats.tuned);
    ASSERT_FALSE(stats.shapes.empty());
    // Hierarchical is a pinnable reference schedule, never raced.
    const auto cands = NttAutotuner::candidates(ctx.degree());
    EXPECT_TRUE(std::none_of(
        cands.begin(), cands.end(), [](const NttCandidate &c) {
            return c.variant == NttVariant::Hierarchical;
        }));

    // Buckets run 1, 2, 4, ... with the last clamped to the chain
    // width, and the choice table answers any limb count from them.
    u32 expect = 1;
    for (const NttShapeStats &s : stats.shapes) {
        EXPECT_EQ(s.logN, ctx.logDegree());
        EXPECT_EQ(s.limbs, std::min(expect, ctx.numPrimes()));
        EXPECT_FALSE(s.times.empty());
        expect <<= 1;
    }
    EXPECT_GE(stats.shapes.back().limbs, ctx.numPrimes());

    // Bucketing: a limb count maps to the first bucket at or above
    // it, and out-of-range counts clamp to the widest bucket.
    const NttChoice one = ctx.nttChoiceFor(1);
    EXPECT_EQ(one.fwd, stats.shapes[0].choice.fwd);
    const NttChoice wide = ctx.nttChoiceFor(100000);
    EXPECT_EQ(wide.fwd, stats.shapes.back().choice.fwd);
}

TEST(NttZooContext, AutoIsBitIdenticalToFlat)
{
    // The headline property: the autotuned per-shape dispatch must be
    // a pure performance decision. Both contexts consume identical
    // randomness (same seed), so every ciphertext bit must match.
    ScopedEnv trials("FIDES_NTT_TUNE_TRIALS", "1");
    Fixture flat(zooParams(NttSchedule::Flat));
    Fixture tuned(zooParams(NttSchedule::Auto));
    ASSERT_TRUE(tuned.ctx.nttStats().tuned);

    for (int pass = 0; pass < 2; ++pass) {
        Ciphertext want = flat.pipeline();
        Ciphertext got = tuned.pipeline();
        SCOPED_TRACE(::testing::Message() << "pass " << pass);
        expectPolyEqual(want.c0, got.c0, "c0");
        expectPolyEqual(want.c1, got.c1, "c1");
    }
}

TEST(NttZooContext, EveryPinnedScheduleBitIdenticalToFlat)
{
    Fixture flat(zooParams(NttSchedule::Flat));
    const Ciphertext want = flat.pipeline();
    for (NttSchedule s : {NttSchedule::Hierarchical,
                          NttSchedule::Radix4,
                          NttSchedule::BlockedHier,
                          NttSchedule::FusedLast}) {
        Fixture f(zooParams(s));
        Ciphertext got = f.pipeline();
        SCOPED_TRACE(::testing::Message()
                     << "schedule " << static_cast<int>(s));
        expectPolyEqual(want.c0, got.c0, "c0");
        expectPolyEqual(want.c1, got.c1, "c1");
    }
}

TEST(NttZooContext, EnvPinOverridesConfiguredSchedule)
{
    ScopedEnv pin("FIDES_NTT_SCHEDULE", "radix4");
    Context ctx(zooParams(NttSchedule::Flat));
    EXPECT_EQ(ctx.nttSchedule(), NttSchedule::Radix4);
    EXPECT_EQ(ctx.nttChoiceFor(1).fwd, NttVariant::Radix4);
}

TEST(NttZooContext, EnvPinAcceptsEverySpelling)
{
    const std::pair<const char *, NttSchedule> spellings[] = {
        {"flat", NttSchedule::Flat},
        {"HIER", NttSchedule::Hierarchical},
        {"hierarchical", NttSchedule::Hierarchical},
        {"radix4", NttSchedule::Radix4},
        {"blocked", NttSchedule::BlockedHier},
        {"BlockedHier", NttSchedule::BlockedHier},
        {"fusedlast", NttSchedule::FusedLast},
    };
    for (auto [text, want] : spellings) {
        ScopedEnv pin("FIDES_NTT_SCHEDULE", text);
        Context ctx(zooParams(NttSchedule::Flat));
        EXPECT_EQ(ctx.nttSchedule(), want) << text;
    }
}

TEST(NttZooContext, EnvPinIgnoresUnrecognizedValue)
{
    ScopedEnv pin("FIDES_NTT_SCHEDULE", "quantum");
    Context ctx(zooParams(NttSchedule::Hierarchical));
    EXPECT_EQ(ctx.nttSchedule(), NttSchedule::Hierarchical);
}

} // namespace
} // namespace fideslib::ckks

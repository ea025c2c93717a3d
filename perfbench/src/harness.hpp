/**
 * @file
 * Shared scaffolding of the repository benchmark: clocks, seeded input
 * generation, the in-memory span recorder, output checks and the raw
 * record every workload fills in. The record is written as JSON and
 * turned into metrics by perfbench/metrics.py, so all percentile and
 * self-time arithmetic lives (and is tested) in one place.
 *
 * The benchmark never traces inside the library: spans wrap calls
 * into each layer's public functions from these files only.
 */

#pragma once

#include <complex>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckks/context.hpp"
#include "ckks/encryptor.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"

namespace perfbench
{

using namespace fideslib;
using Slots = std::vector<std::complex<double>>;

/** Microseconds on the steady clock since the process started. */
double nowUs();
/** CPU time of the calling thread, in microseconds. */
double threadCpuUs();
/** Peak resident set size of the process (VmHWM), in MB. */
double peakRssMb();

/** splitmix64: the only source of benchmark inputs, seeded by --seed. */
class Rng
{
  public:
    explicit Rng(u64 seed) : s_(seed) {}
    u64 next();
    /** Uniform double in [0, 1). */
    double uniform();
    /** Uniform integer in [0, n). */
    u64 below(u64 n) { return next() % n; }
    /** Exponential gap with the given rate (events per second). */
    double exponential(double rate);
    /** @p n slots with real and imaginary parts in [-amp, amp]. */
    Slots slots(std::size_t n, double amp);

  private:
    u64 s_;
};

/** One recorded span: name, interval, parent span and request id. */
struct Span
{
    std::string name;
    double startUs = 0;
    double endUs = 0;
    int parent = -1;
    u64 req = 0;
    u32 tid = 0;
};

/**
 * In-memory span recorder (thread-safe). Disabled recorders cost one
 * branch per span, so the untraced runs carry no tracing work.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}
    bool on() const { return on_; }
    /** Opens a span; returns its index (-1 when disabled). */
    int begin(const std::string &name, int parent = -1, u64 req = 0);
    /** Opens a span whose start lies in the past (open-loop due time). */
    int beginAt(const std::string &name, double startUs, int parent,
                u64 req);
    void end(int idx);
    std::vector<Span> spans() const;

  private:
    bool on_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int parent = -1,
          u64 req = 0)
        : t_(t), id_(t.begin(name, parent, req))
    {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int id() const { return id_; }

  private:
    Tracer &t_;
    int id_;
};

/** A check that failed: counted toward `failed`, never aborts the run. */
struct CheckFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Clock discipline: a timed sample must end in a host join. Construct
 * before the sample, call done() after its closing synchronize; throws
 * CheckFailure when DeviceSet::hostJoins() did not advance.
 */
class JoinCheck
{
  public:
    explicit JoinCheck(const std::vector<DeviceSet *> &devs);
    void done() const;

  private:
    std::vector<DeviceSet *> devs_;
    u64 before_ = 0;
    u64 total() const;
};

/** FNV-1a 64 over bytes; chained across calls. */
u64 fnv1a(const std::string &bytes, u64 h = 0xcbf29ce484222325ull);
std::string hex64(u64 v);

/** Word-wise FNV-1a over a ciphertext's limbs (host join first): equal
 *  for bit-identical ciphertexts, at a fraction of wireBytes' cost. */
u64 limbDigest(const ckks::Ciphertext &ct, u64 h = 0xcbf29ce484222325ull);
/** Wire form of a ciphertext (serial::write of the host ciphertext). */
std::string wireBytes(const ckks::Context &ctx, const ckks::Ciphertext &ct);
/** Decrypt + decode. */
Slots decryptSlots(const ckks::Context &ctx, const ckks::KeyBundle &keys,
                   const ckks::KeyGen &kg, const ckks::Ciphertext &ct);
/** Max |a_i - b_i| over the first b.size() slots. */
double maxError(const Slots &a, const Slots &b);
/** -log2 of a max slot error (capped at 60 bits). */
double precisionBits(double maxErr);

struct Record;

/** The core.device counters of a set of DeviceSets, and their deltas. */
struct OpCounters
{
    KernelCounters work;
    u64 kernels = 0; //!< logical kernels (forBatches calls)
    u64 joins = 0;   //!< host joins

    static OpCounters read(const std::vector<DeviceSet *> &devs);
    OpCounters since(const OpCounters &before) const;
    /**
     * Adds core.device.*_per_op samples for a delta spanning @p ops
     * ops. computed_mb is derived from the byte counters and
     * model_us is the RTX-4090 roofline model of the same counters:
     * both are computed, never measured.
     */
    void record(Record &rec, u64 ops) const;
};

/**
 * Everything a workload measured, written as JSON for metrics.py.
 * `series` hold raw samples (the script takes medians and tails),
 * `values` single numbers, `info` configuration strings.
 */
struct Record
{
    std::map<std::string, std::vector<double>> series;
    std::map<std::string, double> values;
    std::map<std::string, std::string> info;
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures; //!< first few reasons
    std::string digest;                //!< result_digest (probe outputs)

    void fail(const std::string &why);
    void add(const std::string &series, double v)
    {
        this->series[series].push_back(v);
    }
    std::string json(const std::vector<Span> &spans) const;
};

/** Per-run options from the command line. */
struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Median of a copy (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * Builds a workload's set-up three times (once in a traced run),
 * recording each build as a `setup_s` sample; returns the last one.
 */
template <class Make>
auto
repeatSetup(const RunOptions &opt, Record &rec, Make make)
{
    decltype(make()) s;
    for (int i = 0; i < (opt.trace ? 1 : 3); ++i) {
        s.reset(); // the previous set-up's teardown stays untimed
        const double t0 = nowUs();
        s = make();
        rec.add("setup_s", (nowUs() - t0) / 1e6);
    }
    return s;
}

/** Plan-cache replays summed over @p ctxs (ckks.graph). */
u64 planHits(const std::vector<const ckks::Context *> &ctxs);

/**
 * Records the ckks.graph layer (hits per op since @p hitsBefore,
 * misses, keys, arena MB) and core.device.pool_reserved_mb, summed
 * over @p ctxs.
 */
void recordPlanLayer(const std::vector<const ckks::Context *> &ctxs,
                     u64 hitsBefore, u64 ops, Record &rec);

/**
 * `rotate_ms` samples: @p reps synced rotations by one slot of @p top
 * (encrypting @p z). The first output is decrypted and checked against
 * the rotated plaintext; later ones must equal it bit for bit, or are
 * decrypted and checked in turn.
 */
void sampleRotations(const ckks::Evaluator &eval, const ckks::KeyGen &kg,
                     const ckks::Ciphertext &top, const Slots &z,
                     double maxErr, u32 reps, Record &rec);

/**
 * Per-layer probes of the kernel stack on a workload's own operands
 * (@p ct, and @p other for HMult): one synced, timed call of each
 * layer's public function per repetition, recorded as series and as
 * spans under a `bench.probe` root -- core.ntt, ckks.kernels,
 * ckks.basechange, ckks.keyswitch, ckks.evaluator and, with @p wire,
 * ckks.serial.
 */
void probeKernelLayers(const ckks::Evaluator &eval,
                       const ckks::Ciphertext &ct,
                       const ckks::Ciphertext &other, Record &rec,
                       Tracer &tr, bool wire);

/** Sleeps until nowUs() reaches @p us. */
void sleepUntilUs(double us);

void runPrimitives(const RunOptions &opt, Record &rec, Tracer &tr);
void runBootstrap(const RunOptions &opt, Record &rec, Tracer &tr);
void runServe(const RunOptions &opt, Record &rec, Tracer &tr);

} // namespace perfbench

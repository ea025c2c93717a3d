/**
 * @file
 * The multi-tenant serving front door (DESIGN.md §1.8): a thread-safe
 * Server that owns nothing but views -- a shared Context and the
 * registered tenants' KeyBundles -- and schedules N independent
 * client requests across the DeviceSet through a pool of submitter
 * threads. Requests are keyed by tenant: each job resolves its
 * tenant's evaluation keys at submit time (the single-bundle
 * constructors register one default tenant), which is what lets a
 * serve::Router shard tenants across many Servers and migrate them
 * between shards (DESIGN.md §1.12).
 *
 * Each submitter holds a disjoint StreamLease (a contiguous slot
 * range on every device) and its own Evaluator, so the
 * single-submitter invariants of the dispatch layer hold per lease
 * while requests from different submitters interleave on the devices.
 * Replayed execution plans are shared through the Context's
 * single-flight PlanCache: the first request of a shape captures, the
 * rest replay with recorded streams folded onto their own lease --
 * per-request host dispatch is the ~one-graph-launch cost the plan
 * cache was built to deliver, now amortized over many concurrent
 * ciphertexts ("heavy traffic" in the paper's MLaaS setting).
 *
 * Synchronization points that remain per-request: the submitter
 * executes its program's ops in order (chained stream-side through
 * the per-request exit events, never joining the host) and performs
 * ONE host join on the result ciphertext before fulfilling the
 * handle, so Handle::get() returns a settled result. Requests share
 * no mutable device state -- key material is read-only, ciphertext
 * registers are request-private -- so no cross-request events exist.
 */

#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ckks/evaluator.hpp"
#include "serve/request.hpp"

namespace fideslib::ckks
{
class Bootstrapper;
}

namespace fideslib::serve
{

/**
 * Runs @p req's program against @p eval on the calling thread and
 * returns the output register. The server workers use this; tests use
 * it directly for sequential reference runs. Programs containing a
 * Bootstrap op need the overload taking a Bootstrapper (the other one
 * fatals on such ops).
 */
ckks::Ciphertext executeProgram(const ckks::Evaluator &eval,
                                Request req);
ckks::Ciphertext executeProgram(const ckks::Evaluator &eval,
                                const ckks::Bootstrapper *boot,
                                Request req);

/**
 * Completion handle for one submitted request. Cheap to copy; get()
 * blocks until the request retires and moves the settled result out
 * (one-shot). Completion timestamps are kept for latency
 * observability (bench_serve's p50/p99).
 */
class Handle
{
  public:
    Handle() = default;

    bool valid() const { return st_ != nullptr; }
    /** Non-blocking completion poll. */
    bool ready() const;

    /**
     * Blocks until the request completed, then returns the result.
     * The ciphertext is settled (no pending device work). Rethrows
     * the worker's exception if the program failed. One-shot.
     */
    ckks::Ciphertext get();

    /** Submit-to-completion latency; valid once ready(). */
    double latencyMs() const;

  private:
    friend class Server;
    struct State;
    explicit Handle(std::shared_ptr<State> st) : st_(std::move(st)) {}

    std::shared_ptr<State> st_;
};

/** The serving front door. */
class Server
{
  public:
    struct Options
    {
        /** Submitter threads. Prefer <= streamsPerDevice so leases
         *  stay disjoint; more still works (leases wrap). */
        u32 submitters = 1;
        /** Bounded queue: submit() blocks when this many requests are
         *  waiting (backpressure). 0 = unbounded. */
        std::size_t queueCapacity = 0;
        /** Enables Bootstrap ops: a shared (thread-safe) engine built
         *  over the same Context/keys. The caller keeps it alive for
         *  the server's lifetime. The first bootstrap captures the
         *  per-op plans of its ops; every later one (any submitter)
         *  replays them on its own lease. */
        const ckks::Bootstrapper *bootstrapper = nullptr;
    };

    struct Stats
    {
        u64 accepted = 0;  //!< requests submitted
        u64 completed = 0; //!< requests fulfilled
        u64 failed = 0;    //!< requests that threw
        u64 queued = 0;    //!< depth gauge: waiting + executing now
        //! Requests retired (completed or failed). Every request
        //! executes alone on one worker, so this is completed + failed.
        u64 soloRequests = 0;
        //! Always 0: requests are never coalesced. Kept so readers
        //! that report a batched share (the perfbench serve workload)
        //! stay source-compatible.
        u64 batchedRequests = 0;
        //! Host CPU nanoseconds the workers spent on the simulated
        //! device-API surface (ckks::kernels::dispatchEngineNs): the
        //! whole-graph launch-overhead spin plus each replayed node's
        //! wait/submit/record queue traffic. Divided by executedOps it
        //! gives host dispatch per op, independent of wall-clock noise.
        u64 dispatchCpuNs = 0;
        u64 executedOps = 0; //!< total program ops executed
    };

    /**
     * The tenant every request of the single-bundle constructors
     * belongs to. Ordinary tenant ids are small application values,
     * so the sentinel stays out of their way.
     */
    static constexpr u64 kDefaultTenant = ~u64{0};

    /** Fixed per-request latency histogram bounds (ms); the last
     *  bucket of counts is +Inf. */
    static constexpr std::array<double, 12> kLatencyBucketsMs = {
        1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000};

    Server(const ckks::Context &ctx, const ckks::KeyBundle &keys,
           Options opt);
    /** Single submitter, unbounded queue. */
    Server(const ckks::Context &ctx, const ckks::KeyBundle &keys)
        : Server(ctx, keys, Options{})
    {}
    /**
     * Tenantless shard server (serve::Router): every serving tenant
     * is registered explicitly, keyed by id, before its first
     * submit(tenant, req).
     */
    Server(const ckks::Context &ctx, Options opt);
    /** Drains the queue, then joins the submitters. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Registers @p tenant's evaluation keys (and optional bootstrap
     * engine) for submit(tenant, req). Re-registering replaces the
     * previous entry; in-flight requests keep the bundle they
     * resolved at submit time alive. Thread-safe.
     */
    void registerTenant(u64 tenant,
                        std::shared_ptr<const ckks::KeyBundle> keys,
                        const ckks::Bootstrapper *boot = nullptr);
    /**
     * Removes @p tenant (migration's source-side hook). Queued or
     * executing requests of the tenant finish normally -- their jobs
     * hold the key bundle; only NEW submits fatal. Call drain()
     * first when the migration needs the tenant's work settled.
     */
    void unregisterTenant(u64 tenant);
    /** Registered tenant count (observability). */
    std::size_t tenants() const;

    /**
     * Enqueues @p req for @p tenant and returns its completion
     * handle. The tenant's keys must be registered -- routing an
     * unknown tenant is fatal (a misrouted request must never
     * silently run under another tenant's keys). Thread-safe; blocks
     * only when the bounded queue is full.
     */
    Handle submit(u64 tenant, Request req);
    /** Single-bundle convenience: the constructor-registered keys. */
    Handle submit(Request req)
    {
        return submit(kDefaultTenant, std::move(req));
    }

    /** Blocks until every accepted request has been fulfilled. */
    void drain();

    Stats stats() const;
    /**
     * Prometheus-style text dump: serving counters, queue depth, the
     * per-request latency histogram, and the Context's plan-cache
     * stats (keys/hits/misses/arena bytes). @p label is prepended as
     * a `shard="..."` label on every sample when non-empty.
     */
    std::string metricsText(const std::string &label = {}) const;

    u32 submitters() const { return numWorkers_; }
    const ckks::Context &context() const { return *ctx_; }

  private:
    struct Job;
    struct Tenant
    {
        std::shared_ptr<const ckks::KeyBundle> keys;
        const ckks::Bootstrapper *boot = nullptr;
    };

    void workerLoop(u32 index);

    const ckks::Context *ctx_;
    std::size_t capacity_;
    u32 numWorkers_ = 0; //!< fixed before any thread starts

    mutable std::mutex m_;
    std::condition_variable wake_;    //!< queue became non-empty / stop
    std::condition_variable space_;   //!< bounded queue has room
    std::condition_variable drained_; //!< queue empty and workers idle
    std::deque<Job> queue_;
    std::size_t busy_ = 0; //!< workers currently executing a request
    bool stop_ = false;
    Stats stats_;
    std::map<u64, Tenant> tenants_;
    //! Completed-request latency counts per kLatencyBucketsMs bucket,
    //! plus the +Inf bucket at the end.
    std::array<u64, kLatencyBucketsMs.size() + 1> latency_{};
    //! Sum of completed-request latencies (the histogram's `_sum`).
    double latencySumMs_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace fideslib::serve

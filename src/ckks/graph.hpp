/**
 * @file
 * Capture-and-replay execution plans for the CKKS hot ops -- the CUDA
 * Graphs analogue of the simulated substrate (DESIGN.md §1.7,
 * substitution #9).
 *
 * At a fixed (op kind, level, topology, limb batch) the launch
 * topology of HMult/HSquare/Rescale/KeySwitch is identical on every
 * call, yet the live dispatcher re-derives it each time: per batch it
 * walks the operand Dep lists for hazards, picks streams, and the
 * temporaries re-allocate from the MemPool. A PlanScope placed around
 * the op body makes the first call CAPTURE that work into a
 * KernelGraph -- per-batch launch records with a fixed stream
 * assignment, precomputed RAW/WAR/WAW edges, symbolic operand
 * bindings (slot id + limb offset, never a raw Limb pointer) and the
 * scratch footprint -- and every later call REPLAY it: batches are
 * enqueued straight onto their recorded streams, waiting only on the
 * precomputed edges (plus the recorded first-touch external checks
 * against whatever work is still in flight on the freshly bound
 * operands), with the pool's free lists pre-reserved so no replay
 * allocation reaches the host allocator.
 *
 * Replay re-binds operands by position: the op body runs again (it
 * must -- kernel bodies close over this call's polynomials and
 * constants), but kernels::forBatches and the base-conversion
 * dispatcher consult the Context's active session instead of deriving
 * a schedule. Capture and replay therefore submit bit-identical work
 * in an identical order; only the host-side dispatch cost differs.
 *
 * Sessions are thread-local Context state: every serving submitter
 * captures or replays independently over the shared plan cache, which
 * is mutex-guarded with SINGLE-FLIGHT capture -- the first submitter
 * to miss a key captures it while concurrent submitters for the same
 * key block until the plan is published (then replay it); distinct
 * keys capture in parallel (per-thread pool allocation traces keep
 * their footprints separate). Replays fold the recorded stream ids
 * onto the replaying thread's StreamLease, so one plan serves every
 * submitter regardless of which stream subset it leases
 * (DESIGN.md §1.8). Nested scopes are inert: an op captured inside
 * another op's scope simply contributes its kernels to the outer
 * graph. The `FIDES_NO_GRAPH` environment variable (or
 * Context::setGraphEnabled(false)) disables the whole layer; plans
 * are invalidated whenever an execution knob that shapes the schedule
 * changes (limb batch, fusion, NTT schedule, modular-reduction
 * strategy).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "ckks/kernels.hpp"

namespace fideslib::ckks::kernels
{

/** Hot operations with cacheable launch topologies. */
enum class PlanOp : u32
{
    HMult,       //!< Evaluator::multiply (tensor + relin key switch)
    HSquare,     //!< Evaluator::square
    Rescale,     //!< Evaluator::rescaleInPlace (both components)
    KSDecompose, //!< decomposeAndModUp (digit split + ModUp)
    KSApply,     //!< applyRotation (inner product + ModDown + gather)
};

/**
 * Plan identity: everything the schedule shape depends on besides the
 * Context itself (topology and dnum are fixed per context; the
 * mutable execution knobs invalidate the cache instead of widening
 * the key).
 */
struct PlanKey
{
    PlanOp op;
    u32 limbs;   //!< q-limb count (level + 1) of the operand
    u32 digits;  //!< key-switch digits active at that level
    u32 aux = 0; //!< operand-aliasing tag (HMult: a and b are the
                 //!< same object). Aliased operands share slots, so
                 //!< an aliased capture does not describe a
                 //!< distinct-operand call -- it gets its own plan.

    bool
    operator<(const PlanKey &o) const
    {
        if (op != o.op)
            return op < o.op;
        if (limbs != o.limbs)
            return limbs < o.limbs;
        if (digits != o.digits)
            return digits < o.digits;
        return aux < o.aux;
    }
};

/** Per-key observability record (Context::planStats). */
struct PlanKeyStats
{
    PlanKey key;
    u64 hits = 0;   //!< replays served from the cached plan
    u64 misses = 0; //!< capture attempts (first call + re-captures)
};

/** Cache-wide observability snapshot (Context::planStats). */
struct PlanCacheStats
{
    std::vector<PlanKeyStats> keys;
    u64 hits = 0;          //!< summed over keys
    u64 misses = 0;        //!< summed over keys
    u64 reservedBytes = 0; //!< pinned arena footprint, all pools
};

/**
 * Per-Context store of captured plans. Thread-safe with single-flight
 * capture: acquire() hands the first caller of a missing key the
 * Capture role and blocks concurrent callers of the SAME key until
 * the capture is published (they then replay) or abandoned (one of
 * them becomes the next capturer); distinct keys proceed in parallel.
 */
class PlanCache
{
  public:
    enum class Role { Replay, Capture };
    struct Lease
    {
        Role role;
        const KernelGraph *graph; //!< non-null iff role == Replay
    };

    /**
     * Resolves @p key to a role, blocking while another thread holds
     * the same key's capture. Every acquire must be matched by
     * exactly one release() (Replay role) or publish()/abandon()
     * (Capture role).
     *
     * The replay steady state -- every serving submitter resolving
     * the same warm keys per request -- takes only a SHARED lock (a
     * lookup plus an atomic hit count), so same-key replays from N
     * submitters never serialize on the cache; the exclusive lock is
     * reserved for the mutating paths (first-miss insertion, publish,
     * abandon, clear).
     */
    Lease acquire(const PlanKey &key);
    /** Stores a freshly captured plan and wakes same-key waiters. */
    void publish(const PlanKey &key, std::unique_ptr<KernelGraph> graph);
    /** Gives up a capture (invalidated or unwound); same-key waiters
     *  re-race, one of them capturing next. */
    void abandon(const PlanKey &key);
    /** Ends a Replay lease (the graph pointer must not outlive it). */
    void release();

    /** Drops every stored plan. Must not be called while any lease is
     *  outstanding -- a plan must never die under a replay. */
    void clear();
    std::size_t size() const;
    PlanCacheStats stats() const;

    /**
     * Tops up the device pools' arena reservations so every ALREADY
     * stored plan has @p multiplier x its scratch footprint pinned
     * (reserve() takes per-class maxima, so this only grows pins).
     * Called when a Server raises the arena multiplier after plans
     * were captured at a smaller one (warmup, sequential runs).
     */
    void reserveScratch(DeviceSet &devs, u32 multiplier) const;

  private:
    struct Entry
    {
        std::unique_ptr<KernelGraph> graph;
        bool capturing = false;
        //! Atomic so shared-lock replay lookups can count hits
        //! without upgrading to the exclusive lock.
        std::atomic<u64> hits{0};
        std::atomic<u64> misses{0};
    };

    mutable std::shared_mutex m_;
    std::condition_variable_any published_;
    std::map<PlanKey, Entry> plans_;
    std::atomic<u32> activeLeases_{0};
};

/**
 * Records the launch topology of one op while it executes live.
 * forBatches (and the base-conversion dispatcher) feed it one call /
 * node at a time; edges and external checks are derived structurally
 * from the Dep lists -- never from observed event readiness, which is
 * timing-dependent -- so a replay enforces exactly the orderings live
 * execution would.
 */
class GraphCapture
{
  public:
    explicit GraphCapture(const Context &ctx);

    // forBatches hooks. -----------------------------------------------
    /** Starts a logical-kernel call and maps its deps to slots. */
    void beginCall(std::size_t numLimbs, const std::vector<Dep> &deps);
    /** Records one batch launch of the current call. @p ev is the
     *  batch's completion event (null in inline execution). */
    void recordNode(u32 streamId, std::size_t lo, std::size_t hi,
                    u64 bytesRead, u64 bytesWritten, u64 intOps,
                    const std::vector<Dep> &deps,
                    const std::vector<Event> &extraWaits,
                    const Event &ev);

    // Base-conversion hooks (per-device custom launches). -------------
    /** @p dstPoly may be null: targets in host scratch are untracked
     *  (consumers chain through the returned events -> edges). */
    void beginCustomCall(const RNSPoly *srcPoly, const RNSPoly *dstPoly);
    /** One per-device Conv launch reading @p srcPos of the source and
     *  writing @p dstPos of the destination (empty for scratch). */
    void recordCustomNode(u32 streamId, u64 bytesRead, u64 bytesWritten,
                          u64 intOps, const std::vector<u32> &srcPos,
                          const std::vector<u32> &dstPos,
                          const Event &ev);

    /** Marks the capture unusable (an event the plan cannot represent
     *  symbolically was seen); finish() will return null and the op
     *  simply stays uncached. */
    void invalidate() { valid_ = false; }

    /** Finalizes: computes the exit notes and the per-device scratch
     *  histograms. Returns null if the capture was invalidated. */
    std::unique_ptr<KernelGraph> finish();

  private:
    /** Per-(slot, limb) tracking state, mirroring Limb::noteWrite /
     *  noteRead with node ids instead of events. */
    struct LimbState
    {
        u32 writer = GraphNode::kNone;
        //! (streamId, node): latest in-flight reader per stream.
        std::vector<std::pair<u32, u32>> readers;
    };
    struct Slot
    {
        //! Pins the partition so pointer identity cannot be recycled
        //! by a mid-capture free + re-allocation.
        std::shared_ptr<const LimbPartition> pin;
        std::vector<LimbState> limbs;
    };

    u32 slotOf(const RNSPoly &poly);
    LimbState &state(u32 slot, std::size_t limb);
    /** Hazard pass: edges vs the pre-node state, plus first-touch
     *  external checks. */
    void hazards(GraphNode &node, u32 slot, std::size_t lo,
                 std::size_t hi, bool write);
    /** Commit pass: updates the tracking state with this node. */
    void commit(u32 nodeIdx, u32 streamId, u32 slot, std::size_t lo,
                std::size_t hi, bool write);
    void addEdge(GraphNode &node, u32 from);
    void finishNode(GraphNode &&node, const Event &ev);

    const Context *ctx_;
    std::unique_ptr<KernelGraph> graph_;
    std::vector<Slot> slots_;
    //! Partition identity -> slot index, so binding an operand in
    //! beginCall is a lookup rather than an O(slots) scan.
    std::unordered_map<const LimbPartition *, u32> slotIndex_;
    //! Event identity -> producer node, for extraWaits resolution
    //! (a lookup rather than an O(nodes) scan).
    std::unordered_map<const void *, u32> eventNodes_;
    bool valid_ = true;
};

/**
 * Walks a captured plan: for each node, the recorded stream gets the
 * precomputed edge waits (plus live checks on the first-touch limbs
 * of the freshly bound operands), the launch is accounted without the
 * per-kernel dispatch overhead, and the body -- rebuilt by the live op
 * code against this call's polynomials -- is submitted. finish()
 * notes the exit events back onto the bound polynomials so downstream
 * un-graphed work chains correctly.
 */
class GraphReplay
{
  public:
    GraphReplay(const Context &ctx, const KernelGraph &graph);

    /** forBatches hook: replays every recorded batch of the next
     *  call. @p recorded mirrors the live out-parameter. */
    void replayCall(std::size_t numLimbs, u64 bytesReadPerLimb,
                    u64 bytesWrittenPerLimb, u64 intOpsPerLimb,
                    const std::function<void(std::size_t, std::size_t)> &fn,
                    const std::vector<Dep> &deps,
                    std::vector<Event> *recorded);

    // Base-conversion hooks. ------------------------------------------
    void beginCustomCall(const RNSPoly *srcPoly, const RNSPoly *dstPoly);
    /** Accounts the next custom node and enqueues its waits. Returns
     *  the recorded stream, or null when execution is inline (single
     *  stream): the caller then runs the body itself. */
    Stream *customNode(u64 bytesRead, u64 bytesWritten, u64 intOps);
    /** The completion event of the custom node just issued. */
    void noteCustomEvent(const Event &ev);

    /** Applies the exit notes and asserts the whole plan was
     *  consumed (a partial replay is a library bug). */
    void finish();

  private:
    void bindSlot(u32 slot, const RNSPoly &poly);
    /** The pruned wait set of @p node against @p st: in-flight
     *  events on other streams, deduplicated. */
    void gatherWaits(const Stream &st, const GraphNode &node,
                     std::vector<Event> &out) const;
    /** Enqueues a pre-gathered wait set onto @p st (one Stream::wait,
     *  or one combined waiter task); may move from @p waits. */
    void submitWaits(Stream &st, std::vector<Event> &waits);
    const GraphCall &nextCall(bool custom);

    const Context *ctx_;
    const KernelGraph *graph_;
    std::vector<std::shared_ptr<LimbPartition>> bound_;
    std::vector<Event> nodeEvents_;
    //! Per-node wait sets of the current call (live replay's untimed
    //! gather pass); reused across calls to keep allocation churn out
    //! of the replay loop.
    std::vector<std::vector<Event>> waitScratch_;
    std::size_t callCursor_ = 0;
    std::size_t nodeCursor_ = 0;
};

/**
 * RAII plan-cache routing for one hot op: the constructor either
 * activates a replay session (cache hit -- pays the single
 * whole-graph launch overhead), activates a capture session (miss;
 * may block until a concurrent same-key capture resolves), or does
 * nothing (graphs disabled, or a session is already active on this
 * thread: nested ops contribute to the enclosing graph). The
 * destructor closes the session, storing a freshly captured plan and
 * reserving its scratch footprint -- scaled by the context's
 * plan-arena multiplier so N concurrent replays are all served from
 * pool hits -- in the device pools.
 *
 * Scopes nest inertly: an HMult's scope captures its relinearization
 * key switch, KSDecompose included, into the HMult plan, because the
 * inner scope sees the active session and does nothing. Composite programs
 * (bootstrap, linear transforms, Chebyshev series) open no scope of
 * their own; they replay the per-op plans of the ops they call.
 */
class PlanScope
{
  public:
    /** @p aux distinguishes shapes the (op, level) pair cannot --
     *  currently only operand aliasing (PlanKey::aux). */
    PlanScope(const Context &ctx, PlanOp op, u32 level, u32 aux = 0);
    ~PlanScope();

    PlanScope(const PlanScope &) = delete;
    PlanScope &operator=(const PlanScope &) = delete;

    bool capturing() const { return capture_ != nullptr; }
    bool replaying() const { return replay_ != nullptr; }

  private:
    const Context *ctx_ = nullptr;
    PlanKey key_{};
    std::unique_ptr<GraphCapture> capture_;
    std::unique_ptr<GraphReplay> replay_;
};

/**
 * Dispatch-engine accounting: cumulative thread CPU the CALLING
 * thread has spent on the simulated device-API surface of plan
 * replay -- the whole-graph launch-overhead spin (the cudaGraphLaunch
 * analog) plus each replayed node's queue traffic (wait enqueue, task
 * submission, event records, launch accounting: the per-node
 * cudaStreamWaitEvent / cudaLaunchKernel / cudaEventRecord analogs).
 * Monotone per-thread counter; callers take deltas around a region
 * (the serving layer's host-dispatch-per-op metric).
 *
 * Graph-walk bookkeeping -- operand binding, wait derivation, body
 * construction -- is deliberately OUTSIDE the counter, so it measures
 * only the queue-facing cost a replay pays per node.
 */
u64 dispatchEngineNs();

} // namespace fideslib::ckks::kernels

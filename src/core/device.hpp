/**
 * @file
 * Simulated GPU execution substrate: devices, streams, memory pools.
 *
 * The paper's backend targets CUDA: RAII device buffers allocated from
 * the stream-ordered memory pool (`VectorGPU`), kernels launched on
 * CUDA streams, RNS limbs partitioned across multiple GPUs, and a
 * per-launch CPU overhead that motivates limb batching. This container
 * has no GPU, so the substrate is modelled:
 *
 *  - MemPool      stream-ordered pool allocator (size-class free
 *                 lists, allocation statistics, peak tracking). Guarded
 *                 by a mutex so buffers can be created and released
 *                 while kernels run on other streams.
 *  - DeviceVector RAII buffer on a device's pool; also supports the
 *                 paper's "unmanaged" views into a flattened 2-D
 *                 allocation.
 *  - Device       one simulated GPU: a pool, kernel counters, and the
 *                 launch-overhead configuration. Instantiable -- a
 *                 process may hold any number of devices; the library
 *                 groups them in a DeviceSet owned by the Context.
 *  - Stream       in-order execution queue backed by a worker thread;
 *                 kernels submitted to distinct streams run
 *                 concurrently. Launch accounting and the simulated
 *                 CPU-side launch overhead (busy-wait, reproducing the
 *                 launch-bound regime of Figure 7) are paid on the
 *                 submitting thread, exactly like a real CUDA launch.
 *  - Event        stream-ordered completion marker (cudaEvent_t):
 *                 Stream::record() returns one, Stream::wait() makes
 *                 another stream wait for it device-side, and
 *                 Event::synchronize() blocks only the calling host
 *                 thread. Events are how kernels chain without global
 *                 barriers.
 *  - DeviceSet    N devices plus their streams; provides round-robin
 *                 stream selection (global and per-device), the
 *                 full join used at teardown/benchmark boundaries,
 *                 and per-device counter aggregation, plus the
 *                 host-join/logical-kernel counters that expose how
 *                 rarely the asynchronous schedule blocks the host.
 *                 The limb -> device placement policy lives on the
 *                 Context (it depends on the RNS base).
 *  - KernelCounters / DeviceProfile
 *                 every kernel reports bytes touched and integer op
 *                 counts; a roofline model over the platform table
 *                 (paper Table IV) converts the counters into modelled
 *                 times for the four GPU platforms.
 *  - KernelGraph  a captured execution plan (the CUDA Graphs
 *                 analogue): per-launch records with fixed stream
 *                 assignment, precomputed hazard edges and symbolic
 *                 operand slots, replayed by the kernel layer with no
 *                 per-launch dispatch cost (DESIGN.md 1.7).
 *
 * All kernel bodies are real computation -- only the execution
 * substrate is simulated (see DESIGN.md, substitution #1).
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/check.hpp"
#include "core/common.hpp"
#include "core/logging.hpp"

namespace fideslib
{

/**
 * Tiny test-and-set spinlock for critical sections of a few loads and
 * stores (per-limb completion tracking). Cheaper than a std::mutex
 * when contention is rare and the hold time is nanoseconds; TSan
 * understands the acquire/release pairing. BasicLockable: hold with
 * std::lock_guard<SpinLock>.
 */
class SpinLock
{
  public:
    void
    lock()
    {
        while (flag_.test_and_set(std::memory_order_acquire)) {
            // spin: holders only copy a handful of events
        }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

  private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/**
 * A stream-ordered completion marker, the stand-in for cudaEvent_t.
 *
 * An Event is recorded on a stream (Stream::record) and signals once
 * every task submitted to that stream before the record has retired.
 * Other streams can wait on it device-side (Stream::wait) and the
 * host can block on it (synchronize) -- blocking only the caller,
 * never the devices. Events are cheap shared handles: copies observe
 * the same completion state, and a signalled event stays signalled
 * forever (waiters that arrive late return immediately).
 *
 * A default-constructed Event is null: always ready, waits are
 * no-ops. This is what single-stream (inline) execution uses.
 */
class Event
{
  public:
    Event() = default;

    bool valid() const { return st_ != nullptr; }

    /** Non-blocking completion poll. Null events are always ready.
     *  Observing completion is a happens-before edge the hazard
     *  validator must see: every ready-skip fast path in the dispatch
     *  layer funnels through here. */
    bool
    ready() const
    {
        if (!st_)
            return true;
        const bool done = st_->done.load(std::memory_order_acquire);
        if (done && check::enabled())
            check::onEventObserved(st_->checkClock);
        return done;
    }

    /** Blocks the calling host thread until the event signals.
     *  Idempotent: synchronizing twice (or a signalled event) is a
     *  no-op. */
    void
    synchronize() const
    {
        if (ready())
            return;
        std::unique_lock<std::mutex> lock(st_->m);
        st_->cv.wait(lock, [this] {
            return st_->done.load(std::memory_order_acquire);
        });
        if (check::enabled())
            check::onEventObserved(st_->checkClock);
    }

    /** Global id of the stream the event was recorded on. */
    u32 streamId() const { return st_ ? st_->streamId : 0; }

    /** Two events are the same iff they share completion state. */
    bool
    sameAs(const Event &o) const
    {
        return st_ == o.st_;
    }

    /** Stable identity token (the shared completion state): hashable
     *  key for capture-side event -> producer-node maps, where an
     *  O(nodes) sameAs scan would make capture quadratic in plan
     *  size. Null events share the null identity. */
    const void *identity() const { return st_.get(); }

    /** The validator clock snapshot taken at record() (null when
     *  validation was off, or for null events). */
    std::shared_ptr<void>
    checkClock() const
    {
        return st_ ? st_->checkClock : nullptr;
    }

  private:
    friend class Stream;

    struct State
    {
        std::mutex m;
        std::condition_variable cv;
        std::atomic<bool> done{false};
        u32 streamId = 0;
        //! Hazard-validator clock snapshot (check::makeEventClock),
        //! set once at record() before the event is shared.
        std::shared_ptr<void> checkClock;
    };

    explicit Event(std::shared_ptr<State> st) : st_(std::move(st)) {}

    std::shared_ptr<State> st_;
};

// --- Capture-and-replay execution plans ------------------------------
//
// Real CKKS-on-GPU libraries amortize host dispatch with CUDA Graphs:
// the launch topology of a hot op (HMult, Rescale, KeySwitch) at a
// given level is identical every time, so hazards, stream picks and
// scratch allocation are derived once at capture and replayed
// thereafter. KernelGraph is the plan data those replays walk; the
// capture/replay engine itself lives in the kernel layer
// (src/ckks/graph.hpp), which knows polynomials and dependency lists.
// Operands are recorded symbolically -- a slot id assigned in order of
// first appearance plus a limb offset, never a raw buffer pointer --
// so one captured plan re-binds to fresh polynomials of the same
// shape on every replay.

/** One captured kernel launch: the batch range, the stream it was
 *  assigned, its counters, and its precomputed hazards. */
struct GraphNode
{
    static constexpr u32 kNone = 0xffffffffu;

    u32 streamId = 0;        //!< fixed stream assignment
    std::size_t lo = 0;      //!< limb batch range of the owning call
    std::size_t hi = 0;
    u64 bytesRead = 0;       //!< summed launch counters
    u64 bytesWritten = 0;
    u64 intOps = 0;

    /**
     * True when some later node's edge or an exit note references
     * this node's completion event. Unobserved nodes are transitively
     * covered by an observed successor (the last writer/readers of
     * every limb are exit notes, and every predecessor is ordered
     * before them), so replays skip recording their events entirely
     * -- the same bookkeeping economy a real graph replay enjoys.
     */
    bool observed = false;

    /** Precomputed RAW/WAR/WAW edges: indices of earlier nodes whose
     *  completion events this node waits on (cross-stream only --
     *  same-stream ordering is free, so those edges are pruned at
     *  capture). */
    std::vector<u32> waits;

    /**
     * First-touch external hazard: the graph reads (or writes) limbs
     * [lo, hi) of operand slot @p slot before any in-graph kernel has
     * written them, so a replay must wait on whatever events the
     * *bound* polynomial carries at that moment (work enqueued before
     * the replay began). Once an in-graph node writes a limb, later
     * nodes chain through `waits` edges and need no external check.
     */
    struct ExtCheck
    {
        u32 slot;
        u32 lo, hi; //!< limb positions [lo, hi) of the slot
        bool write; //!< writes also wait on external readers (WAR)
    };
    std::vector<ExtCheck> extChecks;
};

/** One logical kernel (a forBatches call) or custom dispatch of the
 *  captured op, with its operand-position -> slot mapping. */
struct GraphCall
{
    u32 firstNode = 0;
    u32 numNodes = 0;
    std::size_t numLimbs = 0;  //!< forBatches extent (0 for custom)
    bool custom = false;       //!< base-conversion style dispatch
    /** Slot id per operand position (GraphNode::kNone = untracked,
     *  e.g. a host-scratch target). Replays bind fresh polynomials to
     *  slots in this order and assert the binding stays consistent. */
    std::vector<u32> depSlots;
};

/** Final event of one (slot, limb) after the graph retires: what a
 *  replay notes back onto the bound polynomial so downstream
 *  un-graphed kernels chain off the replayed work correctly. */
struct GraphExitNote
{
    u32 slot;
    u32 limb;
    u32 node;   //!< last in-graph writer / reader of the limb
    bool write;
};

/**
 * A captured execution plan: the node list, the per-call structure,
 * the exit events, and the scratch footprint. Immutable once stored
 * in a Context's plan cache; replays only read it.
 */
class KernelGraph
{
  public:
    std::vector<GraphCall> calls;
    std::vector<GraphNode> nodes;
    /** Writes first, then reads, so applying in order reproduces the
     *  noteWrite-then-noteRead tracking of live execution. */
    std::vector<GraphExitNote> exits;
    u32 numSlots = 0;
    /**
     * Per-device size-class histogram of every pool allocation the
     * captured op performed -- the plan's scratch footprint. Handing
     * it to MemPool::reserve pre-populates the free lists so replays
     * never touch the host allocator.
     */
    std::vector<std::map<std::size_t, u32>> scratch;
};

/** Aggregate work counters reported by every kernel launch. */
struct KernelCounters
{
    u64 launches = 0;
    u64 bytesRead = 0;
    u64 bytesWritten = 0;
    u64 intOps = 0;

    void
    operator+=(const KernelCounters &o)
    {
        launches += o.launches;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        intOps += o.intOps;
    }
};

/** One compute platform from Table IV of the paper. */
struct DeviceProfile
{
    std::string name;
    double int32Tops;       //!< 32b integer TOPS
    double bandwidthGBs;    //!< DRAM bandwidth
    double l2CacheMB;       //!< shared cache capacity
    double launchOverheadNs; //!< per-kernel CPU launch cost

    /** Roofline-modelled execution time for a set of counters. */
    double modeledTimeUs(const KernelCounters &c) const;
};

/** The four GPUs (and the CPU) the paper evaluates on (Table IV). */
const std::vector<DeviceProfile> &platformTable();

/**
 * Stream-ordered pool allocator. Frees go back to a size-class free
 * list and are recycled by later allocations, mirroring CUDA's
 * cudaMemPool_t behaviour that makes RAII device buffers cheap.
 *
 * Thread safe: buffers may be allocated and released from any thread
 * while kernels execute on the device's streams. Destruction asserts
 * that every allocation was returned (bytesInUse == 0), catching
 * leaks the moment a pool's owner -- a Device inside a Context's
 * DeviceSet -- is torn down.
 */
class MemPool
{
  public:
    ~MemPool();

    void *allocate(std::size_t bytes);
    void release(void *ptr, std::size_t bytes);

    /**
     * Releases a buffer that kernels may still be touching: the
     * buffer stays owned by the pool's deferred list (and counted as
     * in-use) until every @p events entry has signalled, then it is
     * recycled like a normal free. This is the stream-ordered free of
     * cudaFreeAsync -- the host never blocks; reclamation happens
     * opportunistically on later allocate()/trim() calls, and the
     * destructor is the only place that waits.
     */
    void deferRelease(void *ptr, std::size_t bytes,
                      std::vector<Event> events);

    u64 bytesInUse() const;
    u64 bytesPeak() const;
    u64 allocCalls() const;
    u64 poolHits() const;
    u64 deferredFrees() const;
    /** Bytes sitting on the free lists, available for recycling. */
    u64 bytesCached() const;

    /**
     * Upper bound on the cached (freed but not returned) bytes.
     * Crossing it on a release evicts blocks -- largest size classes
     * first -- until the cache is back under the bound, so a spill
     * sheds only the excess instead of flushing the whole cache.
     */
    void setCacheBound(u64 bytes);
    u64 cacheBound() const;

    /** Returns cached blocks to the host allocator. */
    void trim();

    // Graph capture support. ------------------------------------------
    /**
     * Starts recording the size-class histogram of allocate() calls
     * made by the CALLING THREAD (used by plan capture). Traces are
     * thread-local so concurrent captures of distinct plan keys --
     * and allocations by other submitter threads replaying unrelated
     * plans -- never pollute each other's footprint.
     */
    void beginAllocTrace();
    /** Stops the calling thread's recording and returns the histogram. */
    std::map<std::size_t, u32> endAllocTrace();
    /**
     * Pre-populates the free lists so that at least @p histogram
     * blocks of each size class are available: the arena reservation
     * a captured plan installs so its replays are served entirely
     * from pool hits -- zero host-allocator calls.
     *
     * The histogram counts every allocate() call of the captured op
     * (total, not peak outstanding) deliberately: stream-ordered
     * deferred frees return blocks at event-dependent times, so the
     * total is the bound that holds under any replay timing; since
     * reservations top up (never add up) across plans, the floor is
     * bounded by the single largest op. Reserved counts are PINNED:
     * cache-bound eviction never sheds them (a spill must not
     * silently break the zero-malloc replay invariant); an explicit
     * trim() drops the pins and frees everything.
     */
    void reserve(const std::map<std::size_t, u32> &histogram);

    /**
     * Releases every plan-arena pin and frees the pinned cached
     * blocks (up to the pinned count per size class; blocks currently
     * allocated out return through the normal cache-bound path).
     * Called by plan invalidation: a cleared plan cache must not keep
     * its reserved arenas parked on the free lists forever.
     */
    void unreserve();

    /** Bytes pinned by plan-arena reservations (sum over classes). */
    u64 bytesReserved() const;

    /**
     * Reclaims deferred frees whose events have all signalled. Called
     * by Stream::synchronize() / DeviceSet::synchronize() so a device
     * that goes idle after a burst returns its buffers (and stops
     * overstating bytesInUse) without waiting for the next allocate().
     */
    void sweepDeferred();

  private:
    struct DeferredFree
    {
        void *ptr;
        std::size_t bytes;
        std::vector<Event> events;
    };

    void trimLocked();
    void evictLocked(u64 targetBytes);
    void sweepDeferredLocked();
    void releaseLocked(void *ptr, std::size_t bytes);

    mutable std::mutex m_;
    std::map<std::size_t, std::vector<void *>> freeLists_;
    std::vector<DeferredFree> deferred_;
    //! Per-size-class floor eviction must not sink below (plan
    //! arenas); cleared by an explicit trim().
    std::map<std::size_t, u32> reserved_;
    u64 bytesInUse_ = 0;
    u64 bytesPeak_ = 0;
    u64 bytesCached_ = 0;
    u64 cacheBound_ = 4ULL << 30;
    u64 allocCalls_ = 0;
    u64 poolHits_ = 0;
    u64 deferredFrees_ = 0;
};

/**
 * One simulated device: owns the memory pool, the kernel counters,
 * and the launch-overhead configuration. Plain instantiable object --
 * create as many as the topology needs (normally via DeviceSet).
 */
class Device
{
  public:
    explicit Device(u32 id = 0) : id_(id) {}

    Device(const Device &) = delete;
    Device &operator=(const Device &) = delete;

    u32 id() const { return id_; }
    MemPool &pool() { return pool_; }
    const MemPool &pool() const { return pool_; }

    KernelCounters counters() const;
    void resetCounters();

    /** Simulated per-launch CPU overhead (0 disables the spin). */
    void setLaunchOverheadNs(u64 ns) { launchOverheadNs_ = ns; }
    u64 launchOverheadNs() const { return launchOverheadNs_; }

    /**
     * Accounts one kernel launch (bytes/ops) and pays the simulated
     * CPU-side launch overhead. Called on the submitting thread,
     * before the kernel body is handed to a stream.
     */
    void launch(u64 bytesRead, u64 bytesWritten, u64 intOps);

    /**
     * Accounts a replayed kernel launch: counters identical to
     * launch() -- the device still executes the same kernel, so the
     * roofline model and launches/op are unchanged -- but the
     * per-launch CPU overhead is NOT paid. A captured plan amortizes
     * host dispatch the way cudaGraphLaunch does: one overhead per
     * whole-graph launch (paid by the replay scope), none per node.
     */
    void launchReplayed(u64 bytesRead, u64 bytesWritten, u64 intOps);

  private:
    u32 id_;
    MemPool pool_;
    mutable std::mutex countersMutex_;
    KernelCounters counters_;
    u64 launchOverheadNs_ = 0;
};

/** Busy-waits for approximately @p ns nanoseconds. */
void spinNs(u64 ns);

/**
 * An in-order execution stream bound to one device. Work submitted to
 * a stream runs on its worker thread in submission order; work on
 * distinct streams runs concurrently. synchronize() blocks the caller
 * until every submitted task has retired (cudaStreamSynchronize).
 *
 * The worker thread is spawned lazily on the first submit, so a
 * single-stream configuration that executes kernels inline (the
 * fast path in kernels::forBatches) never pays for a thread.
 */
class Stream
{
  public:
    Stream(Device &dev, u32 id) : dev_(&dev), id_(id) {}
    ~Stream();

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    u32 id() const { return id_; }
    Device &device() const { return *dev_; }

    /** Enqueues @p task; returns immediately. */
    void submit(std::function<void()> task);

    /**
     * Records a completion event after everything currently enqueued
     * (cudaEventRecord). If the stream is idle the event is returned
     * already signalled, so an inline (no-worker) schedule never
     * spawns a thread just to signal.
     */
    Event record();

    /**
     * Makes work submitted to THIS stream after the call wait for
     * @p e device-side (cudaStreamWaitEvent): the worker blocks, the
     * host returns immediately. Signalled/null events, and events
     * recorded earlier on this same stream, are no-ops -- in-order
     * execution already covers them.
     */
    void wait(const Event &e);

    /** Blocks until the queue is empty and the worker is idle. */
    void synchronize();

  private:
    void workerLoop();

    Device *dev_;
    u32 id_;
    std::thread worker_;
    std::mutex m_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0; //!< queued + currently executing
    bool stop_ = false;
};

/**
 * The process's execution topology: N simulated devices and S streams
 * per device (the limb -> device placement policy lives on the
 * Context, which knows the RNS base size). Provides the stream
 * schedules used by kernels::forBatches: a global round-robin and a
 * per-device round-robin for ownership-aware dispatch.
 *
 * Streams are interleaved across devices: stream i belongs to device
 * i % N, so walking streams round-robin also balances the devices.
 */
class DeviceSet
{
  public:
    explicit DeviceSet(u32 numDevices = 1, u32 streamsPerDevice = 1,
                       u64 launchOverheadNs = 0);
    ~DeviceSet();

    DeviceSet(const DeviceSet &) = delete;
    DeviceSet &operator=(const DeviceSet &) = delete;

    u32 numDevices() const { return static_cast<u32>(devices_.size()); }
    u32 numStreams() const { return static_cast<u32>(streams_.size()); }
    u32 streamsPerDevice() const { return streamsPerDevice_; }

    Device &device(u32 i) { return *devices_[i]; }
    const Device &device(u32 i) const { return *devices_[i]; }
    Stream &stream(u32 i) { return *streams_[i]; }

    /** The k-th (mod S) stream bound to device @p deviceId. */
    Stream &
    streamOfDevice(u32 deviceId, u32 k)
    {
        return *streams_[deviceId +
                         (k % streamsPerDevice_) * numDevices()];
    }

    /**
     * Full join: blocks until every stream on every device is idle.
     * No longer called per logical kernel -- only at genuine host
     * boundaries (benchmark iteration edges, teardown). Counted as
     * one host join.
     */
    void synchronize();

    /** Sum of the per-device kernel counters. */
    KernelCounters aggregateCounters() const;
    void resetCounters();
    void setLaunchOverheadNs(u64 ns);

    /** Total bytes currently allocated across all device pools. */
    u64 bytesInUse() const;

    // Asynchrony accounting. ------------------------------------------
    /** Called whenever the host actually blocks on device work (a
     *  DeviceSet::synchronize, or an Event wait that found pending
     *  work). The barrier model paid one of these per logical kernel;
     *  the event model pays them only at true host reads. */
    void noteHostJoin() { hostJoins_.fetch_add(1, std::memory_order_relaxed); }
    u64 hostJoins() const { return hostJoins_.load(std::memory_order_relaxed); }

    /** One per kernels::forBatches call (a "logical kernel"). The
     *  barrier model joined the host after every one of these, so
     *  logicalKernels() / hostJoins() is the measured join reduction. */
    void noteLogicalKernel() { logicalKernels_.fetch_add(1, std::memory_order_relaxed); }
    u64 logicalKernels() const { return logicalKernels_.load(std::memory_order_relaxed); }

    /** Plan-cache accounting: one capture per (op, shape) miss, one
     *  replay per hit. planReplays() is the bench's plan_cache_hits. */
    void notePlanCapture() { planCaptures_.fetch_add(1, std::memory_order_relaxed); }
    u64 planCaptures() const { return planCaptures_.load(std::memory_order_relaxed); }
    void notePlanReplay() { planReplays_.fetch_add(1, std::memory_order_relaxed); }
    u64 planReplays() const { return planReplays_.load(std::memory_order_relaxed); }

  private:
    std::vector<std::unique_ptr<Device>> devices_;
    std::vector<std::unique_ptr<Stream>> streams_;
    u32 streamsPerDevice_ = 1;
    std::atomic<u64> hostJoins_{0};
    std::atomic<u64> logicalKernels_{0};
    std::atomic<u64> planCaptures_{0};
    std::atomic<u64> planReplays_{0};
};

/**
 * A per-submitter view over a DeviceSet: a contiguous range of stream
 * slots on EVERY device (each device keeps participating -- limb
 * placement is data-determined -- but a request's kernels only ever
 * land on its leased slots). The serving layer hands each submitter
 * thread a disjoint lease, so two concurrent requests never interleave
 * on the same stream: within a lease the single-submitter invariants
 * of the dispatch layer hold unchanged, and cross-request ordering
 * needs no events at all because requests share no mutable operands
 * (key material is read-only).
 *
 * Captured plans record the global ids of whatever lease streams the
 * capturing thread held; `remap()` folds a recorded id onto the
 * replaying thread's lease (same device, slot modulo the lease width),
 * so one plan serves every lease geometry. For the full-set lease the
 * remap is the identity, preserving the single-submitter schedule
 * bit-for-bit.
 */
class StreamLease
{
  public:
    StreamLease(DeviceSet &devs, u32 firstSlot, u32 numSlots)
        : devs_(&devs), first_(firstSlot), slots_(numSlots)
    {
        FIDES_ASSERT(numSlots >= 1);
        FIDES_ASSERT(firstSlot + numSlots <= devs.streamsPerDevice());
    }

    /** The whole-set lease: every slot of every device. */
    explicit StreamLease(DeviceSet &devs)
        : StreamLease(devs, 0, devs.streamsPerDevice())
    {}

    DeviceSet &devices() const { return *devs_; }
    u32 slotsPerDevice() const { return slots_; }
    u32 numStreams() const { return slots_ * devs_->numDevices(); }

    /** The k-th (mod lease width) leased stream of device @p d. */
    Stream &
    streamOfDevice(u32 d, u32 k) const
    {
        return devs_->streamOfDevice(d, first_ + (k % slots_));
    }

    /** The i-th leased stream, interleaved across devices exactly
     *  like DeviceSet's global numbering (shape-free round-robin). */
    Stream &
    stream(u32 i) const
    {
        const u32 nd = devs_->numDevices();
        return streamOfDevice(i % nd, (i / nd) % slots_);
    }

    /** Folds a plan-recorded global stream id onto this lease: same
     *  device, recorded slot modulo the lease width. Identity when
     *  the lease covers the whole set. */
    Stream &
    remap(u32 recordedStreamId) const
    {
        const u32 nd = devs_->numDevices();
        return streamOfDevice(recordedStreamId % nd,
                              recordedStreamId / nd);
    }

  private:
    DeviceSet *devs_;
    u32 first_;
    u32 slots_;
};

/**
 * Partitions @p totalWorkers submitters over a set's stream slots:
 * worker @p worker gets a contiguous slot group, groups as equal as
 * possible; with more workers than slots the groups wrap (two
 * submitters then share streams, which stays correct -- stream queues
 * are mutex-guarded and cross-request hazards do not exist -- but
 * loses the isolation, so servers should prefer submitters <= slots).
 */
inline StreamLease
leaseForWorker(DeviceSet &devs, u32 worker, u32 totalWorkers)
{
    const u32 slots = devs.streamsPerDevice();
    const u32 groups = totalWorkers < slots ? totalWorkers : slots;
    const u32 g = worker % groups;
    const u32 first = g * slots / groups;
    const u32 last = (g + 1) * slots / groups;
    return StreamLease(devs, first, last - first);
}

/**
 * RAII device buffer, the stand-in for the paper's VectorGPU.
 *
 * Managed vectors own memory from one device's pool and remember the
 * device so destruction releases to the right pool and clone()
 * accounts its copy traffic as a device launch. Unmanaged vectors
 * wrap a caller-provided pointer (the paper's
 * flattened-2D-with-simulated-stack pattern for short-lived,
 * constant-sized RNS polynomials).
 */
template <typename T>
class DeviceVector
{
  public:
    DeviceVector() = default;

    DeviceVector(std::size_t n, Device &dev)
        : dev_(&dev), size_(n), owned_(true)
    {
        data_ = static_cast<T *>(dev.pool().allocate(n * sizeof(T)));
    }

    /** Unmanaged view: memory owned by a higher-level class. */
    DeviceVector(T *ptr, std::size_t n, Device *dev = nullptr)
        : dev_(dev), data_(ptr), size_(n), owned_(false)
    {}

    DeviceVector(const DeviceVector &) = delete;
    DeviceVector &operator=(const DeviceVector &) = delete;

    DeviceVector(DeviceVector &&o) noexcept
        : dev_(o.dev_), data_(o.data_), size_(o.size_), owned_(o.owned_)
    {
        o.dev_ = nullptr;
        o.data_ = nullptr;
        o.size_ = 0;
        o.owned_ = false;
    }

    DeviceVector &
    operator=(DeviceVector &&o) noexcept
    {
        if (this != &o) {
            destroy();
            dev_ = o.dev_;
            data_ = o.data_;
            size_ = o.size_;
            owned_ = o.owned_;
            o.dev_ = nullptr;
            o.data_ = nullptr;
            o.size_ = 0;
            o.owned_ = false;
        }
        return *this;
    }

    ~DeviceVector() { destroy(); }

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool managed() const { return owned_; }
    Device *device() const { return dev_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /**
     * Deep copy into a new managed vector on the same device. The
     * copy is a device-to-device transfer, so its traffic goes
     * through the launch counters like any other kernel.
     */
    DeviceVector
    clone() const
    {
        FIDES_ASSERT(dev_ != nullptr);
        DeviceVector c(size_, *dev_);
        dev_->launch(size_ * sizeof(T), size_ * sizeof(T), 0);
        std::memcpy(c.data_, data_, size_ * sizeof(T));
        if (check::enabled())
            check::markInitialized(c.data_);
        return c;
    }

    /**
     * Relinquishes ownership of the buffer without releasing it to
     * the pool; the caller becomes responsible (used to hand a
     * still-pending buffer to MemPool::deferRelease). Returns nullptr
     * for unmanaged or empty vectors.
     */
    T *
    detach()
    {
        if (!owned_)
            return nullptr;
        owned_ = false;
        T *p = data_;
        data_ = nullptr;
        return p;
    }

  private:
    void
    destroy()
    {
        if (owned_ && data_) {
            dev_->pool().release(data_, size_ * sizeof(T));
        }
        data_ = nullptr;
    }

    Device *dev_ = nullptr;
    T *data_ = nullptr;
    std::size_t size_ = 0;
    bool owned_ = false;
};

} // namespace fideslib

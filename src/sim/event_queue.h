#ifndef MTIA_SIM_EVENT_QUEUE_H_
#define MTIA_SIM_EVENT_QUEUE_H_

/**
 * @file
 * Discrete-event simulation core. Serving simulators, fleet rollout
 * simulators, and the job scheduler are all built on this queue.
 *
 * Fast-path design (see DESIGN.md "DES core internals"):
 *
 *  - Two-level bucketed queue. A calendar ring of kRingSlots per-tick
 *    FIFO lists covers the sliding near-future window
 *    [ring_base_, ring_base_ + kRingSlots); events beyond it land in
 *    an overflow min-heap of 24-byte POD references ordered by
 *    (when, seq). When the ring drains, the window jumps to the
 *    earliest overflow tick; as the window slides forward, overflow
 *    events it catches up with are promoted tick-by-tick. Either way
 *    promotion preserves (when, seq) order: a promoted event was
 *    scheduled while its tick was still out of window — before any
 *    ring event at that tick — so it carries a smaller sequence
 *    number and is prepended.
 *
 *  - Zero-copy dispatch. Callbacks are mtia::InlineFunction (small-
 *    buffer-optimized, move-only); dispatch moves the callback out of
 *    its slot and never deep-copies a closure.
 *
 *  - Slab recycling. Events live in fixed Node slots chained through
 *    a freelist; steady-state scheduling of inline-sized callbacks
 *    performs zero heap allocations.
 *
 * Ordering guarantees are identical to the classic binary-heap
 * implementation: events run in (when, seq) order, so same-tick
 * events fire in FIFO order of scheduling and simulations stay
 * byte-for-byte deterministic.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/inline_function.h"
#include "sim/types.h"

namespace mtia::telemetry {
class MetricRegistry;
} // namespace mtia::telemetry

namespace mtia {

/**
 * A time-ordered queue of callbacks. Events scheduled for the same tick
 * fire in FIFO order of scheduling, which keeps simulations
 * deterministic.
 */
class EventQueue
{
  public:
    /** Move-only callable; closures owning unique_ptr state are fine. */
    using Callback = InlineFunction<void()>;

    /** Near-future window width in ticks (one FIFO list per tick). */
    static constexpr std::size_t kRingSlots = 1024;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb at absolute time @p when (>= now). Takes the
     * callback by rvalue reference so a closure built at the call
     * site moves straight into its slab slot (one move, no copies).
     */
    void schedule(Tick when, Callback &&cb);

    /** Schedule @p cb @p delay ticks from now. */
    void scheduleAfter(Tick delay, Callback &&cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** Number of pending events. */
    std::size_t pending() const { return ring_count_ + far_.size(); }

    /** Events dispatched so far (telemetry). */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending() over the queue's lifetime. */
    std::size_t peakPending() const { return peak_pending_; }

    /** Run events until the queue drains. Returns final time. */
    Tick run();

    /**
     * Drop all pending events (simulation teardown). Constant-time
     * structural reset plus one destructor call per dropped callback;
     * now() and executed() are unchanged.
     */
    void clear();

    /** Events ever scheduled (telemetry: event_queue.scheduled). */
    std::uint64_t scheduledCount() const { return scheduled_; }

    /**
     * Scheduled callbacks stored in the InlineFunction small buffer —
     * i.e. without a heap box (telemetry: event_queue.inline_callbacks).
     */
    std::uint64_t inlineCallbackCount() const { return inline_callbacks_; }

    /**
     * Events that entered the overflow heap and were later promoted
     * into the calendar ring when the window advanced (telemetry:
     * event_queue.overflow_promotions).
     */
    std::uint64_t overflowPromotions() const { return overflow_promotions_; }

    /** Events currently bucketed in the near-future calendar ring. */
    std::size_t nearPending() const { return ring_count_; }

    /** Events currently parked in the far-future overflow heap. */
    std::size_t farPending() const { return far_.size(); }

    /**
     * Publish the queue's counters and bucket-occupancy gauges into
     * @p metrics: counters event_queue.{scheduled, inline_callbacks,
     * overflow_promotions} accumulate (inc-by-total, matching the
     * sim.events_executed convention) and gauges
     * event_queue.bucket_occupancy{level=near|far} are set to the
     * instantaneous occupancy.
     */
    void publishMetrics(telemetry::MetricRegistry &metrics) const;

  private:
    /** One scheduled event in a slab slot. */
    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr;
        Callback cb;
    };

    /** Intrusive per-tick FIFO (head-to-tail = scheduling order). */
    struct Fifo
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** Overflow-heap element: POD reference, cheap to sift. */
    struct FarRef
    {
        Tick when;
        std::uint64_t seq;
        Node *node;
    };

    /** Max-heap comparator that makes (when, seq)-smallest the front. */
    static bool
    farLater(const FarRef &a, const FarRef &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    static constexpr std::size_t kSlotMask = kRingSlots - 1;
    static constexpr std::size_t kBitmapWords = kRingSlots / 64;
    static constexpr std::size_t kSlabNodes = 256;
    static_assert((kRingSlots & kSlotMask) == 0,
                  "ring size must be a power of two");

    Node *allocNode();
    void freeNode(Node *n);
    void growSlab();

    void pushRing(Node *n);
    /** Pop the FIFO head of @p slot. @pre the slot is non-empty. */
    Node *popRing(std::size_t slot);
    /**
     * Earliest occupied tick in the ring. Pure scan: ring_base_ is
     * committed only when a tick is dispatched.
     * @pre ring_count_ > 0.
     */
    Tick nextRingTick() const;

    void pushFar(Node *n);
    /**
     * Jump the window to the earliest overflow tick and promote every
     * overflow event inside the new window into the ring.
     * @pre ring_count_ == 0 && !far_.empty().
     */
    void promoteFar();
    /**
     * The sliding window caught up with the overflow heap's front
     * (when <= @p t, the earliest ring tick): promote the overflow
     * events at the earliest such tick, prepending them to their
     * slot's FIFO (they predate every ring event at that tick).
     * Returns the tick to dispatch, which is min(t, overflow front);
     * the caller commits ring_base_ to it alongside now_.
     */
    Tick pullEligibleFar(Tick t);

    /** Dispatch every event in the slot holding tick now_. */
    void drainCurrentSlot();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t peak_pending_ = 0;

    /**
     * Ring window base: ring events have when in
     * [ring_base_, ring_base_ + kRingSlots), so when & kSlotMask is
     * collision-free. The window slides as ring_base_ advances.
     */
    Tick ring_base_ = 0;
    std::size_t ring_count_ = 0;
    std::array<Fifo, kRingSlots> ring_{};
    /** Occupancy bit per slot, for O(words) next-event scans. */
    std::array<std::uint64_t, kBitmapWords> occupied_{};

    /** Far-future overflow: min-heap on (when, seq). */
    std::vector<FarRef> far_;

    /** Slab storage + freelist for Node slots. */
    std::vector<std::unique_ptr<Node[]>> slabs_;
    Node *free_ = nullptr;

    std::uint64_t scheduled_ = 0;
    std::uint64_t inline_callbacks_ = 0;
    std::uint64_t overflow_promotions_ = 0;
};

} // namespace mtia

#endif // MTIA_SIM_EVENT_QUEUE_H_

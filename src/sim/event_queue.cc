#include "sim/event_queue.h"

#include <algorithm>
#include <bit>

#include "core/check.h"
#include "telemetry/metrics.h"

namespace mtia {

void
EventQueue::schedule(Tick when, Callback &&cb)
{
    MTIA_CHECK_GE(when, now_) << ": EventQueue::schedule in the past";
    MTIA_CHECK(cb != nullptr) << ": EventQueue::schedule null callback";
    Node *n = allocNode();
    n->when = when;
    n->seq = nextSeq_++;
    n->cb = std::move(cb);
    ++scheduled_;
    if (n->cb.storedInline())
        ++inline_callbacks_;
    // Sliding window: ring_base_ only advances when a tick is actually
    // dispatched (committed alongside now_ in run()), so
    // when >= now_ >= ring_base_ holds here and the subtraction cannot
    // wrap. Even if it did, a wrapped difference is huge and routes the
    // event to the far heap, which orders any tick correctly.
    MTIA_DCHECK_GE(now_, ring_base_) << ": ring window base ahead of now";
    if (when - ring_base_ < static_cast<Tick>(kRingSlots)) {
        pushRing(n);
    } else {
        pushFar(n);
    }
    peak_pending_ = std::max(peak_pending_, pending());
}

Tick
EventQueue::run()
{
    while (pending() > 0) {
        if (ring_count_ == 0)
            promoteFar();
        Tick t = nextRingTick();
        if (!far_.empty() && far_.front().when <= t)
            t = pullEligibleFar(t);
        // Simulated time never moves backwards: per-tick FIFOs drain
        // fully before the scan moves on, and schedule() rejects past
        // timestamps.
        MTIA_DCHECK_GE(t, now_) << ": event queue tick regression";
        // Commit the window base together with now_: ring_base_ only
        // ever holds a dispatched tick, so an interrupted run can never
        // leave it ahead of now_.
        now_ = t;
        ring_base_ = t;
        drainCurrentSlot();
    }
    return now_;
}

void
EventQueue::clear()
{
    // Structural reset: no ordering work, one destructor per dropped
    // callback, every Node slot recycled through the freelist.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const std::size_t slot =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            bits &= bits - 1;
            Node *n = ring_[slot].head;
            while (n != nullptr) {
                Node *next = n->next;
                n->cb = nullptr;
                n->next = free_;
                free_ = n;
                n = next;
            }
            ring_[slot] = Fifo{};
        }
        occupied_[w] = 0;
    }
    ring_count_ = 0;
    for (const FarRef &e : far_) {
        e.node->cb = nullptr;
        e.node->next = free_;
        free_ = e.node;
    }
    far_.clear();
}

void
EventQueue::publishMetrics(telemetry::MetricRegistry &metrics) const
{
    metrics.counter("event_queue.scheduled").inc(scheduled_);
    metrics.counter("event_queue.inline_callbacks").inc(inline_callbacks_);
    metrics.counter("event_queue.overflow_promotions")
        .inc(overflow_promotions_);
    metrics.gauge("event_queue.bucket_occupancy", {{"level", "near"}})
        .set(static_cast<double>(ring_count_));
    metrics.gauge("event_queue.bucket_occupancy", {{"level", "far"}})
        .set(static_cast<double>(far_.size()));
}

EventQueue::Node *
EventQueue::allocNode()
{
    if (free_ == nullptr)
        growSlab();
    Node *n = free_;
    free_ = n->next;
    n->next = nullptr;
    return n;
}

void
EventQueue::freeNode(Node *n)
{
    // The callback has already been moved out or reset by the caller.
    n->next = free_;
    free_ = n;
}

void
EventQueue::growSlab()
{
    slabs_.push_back(std::make_unique<Node[]>(kSlabNodes));
    Node *slab = slabs_.back().get();
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
        slab[i].next = free_;
        free_ = &slab[i];
    }
}

void
EventQueue::pushRing(Node *n)
{
    const auto slot = static_cast<std::size_t>(n->when & kSlotMask);
    Fifo &f = ring_[slot];
    n->next = nullptr;
    if (f.head == nullptr) {
        f.head = n;
        f.tail = n;
        occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else {
        f.tail->next = n;
        f.tail = n;
    }
    ++ring_count_;
}

EventQueue::Node *
EventQueue::popRing(std::size_t slot)
{
    Fifo &f = ring_[slot];
    Node *n = f.head;
    f.head = n->next;
    if (f.head == nullptr) {
        f.tail = nullptr;
        occupied_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }
    --ring_count_;
    return n;
}

Tick
EventQueue::nextRingTick() const
{
    MTIA_DCHECK_GT(ring_count_, 0u) << ": ring scan on an empty ring";
    const auto s0 = static_cast<std::size_t>(ring_base_ & kSlotMask);
    std::size_t w = s0 >> 6;
    // First word: only bits at or after s0; the bits before it hold
    // ticks near the far edge of the window and are revisited when the
    // scan wraps around.
    std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (s0 & 63));
    for (std::size_t i = 0; i <= kBitmapWords; ++i) {
        if (word != 0) {
            const std::size_t slot =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
            return ring_base_ + static_cast<Tick>((slot - s0) & kSlotMask);
        }
        w = (w + 1) & (kBitmapWords - 1);
        word = occupied_[w];
    }
    MTIA_UNREACHABLE("occupancy bitmap disagrees with ring_count_");
}

void
EventQueue::pushFar(Node *n)
{
    far_.push_back(FarRef{n->when, n->seq, n});
    std::push_heap(far_.begin(), far_.end(), farLater);
}

void
EventQueue::promoteFar()
{
    MTIA_DCHECK_EQ(ring_count_, 0u)
        << ": overflow promotion into a non-empty ring";
    MTIA_DCHECK(!far_.empty()) << ": overflow promotion from an empty heap";
    const Tick jump = far_.front().when;
    MTIA_DCHECK_GE(jump, now_) << ": overflow event in the past";
    // Window arithmetic ignores Tick overflow: 2^64 ps is ~213 days of
    // simulated time, far past every workload here.
    ring_base_ = jump;
    // Heap pops ascend in (when, seq), so per-tick FIFOs fill in
    // sequence order and same-tick FIFO dispatch is preserved.
    while (!far_.empty() &&
           far_.front().when - jump < static_cast<Tick>(kRingSlots)) {
        std::pop_heap(far_.begin(), far_.end(), farLater);
        Node *n = far_.back().node;
        far_.pop_back();
        pushRing(n);
        ++overflow_promotions_;
    }
}

Tick
EventQueue::pullEligibleFar(Tick t)
{
    // An overflow event's tick is inside the window now. Every
    // overflow event at a given tick was scheduled while that tick
    // was still out of window — strictly before any ring event at the
    // same tick was accepted — so its sequence number is smaller and
    // it belongs at the FRONT of the per-tick FIFO. Heap pops ascend
    // in (when, seq), so the collected block is already in order.
    const Tick w = far_.front().when;
    if (w < t) {
        // A far-only tick precedes the earliest ring tick. Ring events
        // all satisfy when < p + kRingSlots for some drained tick
        // p <= w, so the caller retreating the base to w (committed on
        // dispatch) keeps the window span collision-free.
        t = w;
    }
    Node *head = nullptr;
    Node *tail = nullptr;
    while (!far_.empty() && far_.front().when == t) {
        std::pop_heap(far_.begin(), far_.end(), farLater);
        Node *n = far_.back().node;
        far_.pop_back();
        n->next = nullptr;
        if (tail == nullptr)
            head = n;
        else
            tail->next = n;
        tail = n;
        ++ring_count_;
        ++overflow_promotions_;
    }
    MTIA_DCHECK(head != nullptr) << ": eligible overflow tick vanished";
    const auto slot = static_cast<std::size_t>(t & kSlotMask);
    Fifo &f = ring_[slot];
    if (f.head == nullptr) {
        f.tail = tail;
        occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    } else {
        tail->next = f.head;
    }
    f.head = head;
    return t;
}

void
EventQueue::drainCurrentSlot()
{
    const auto slot = static_cast<std::size_t>(now_ & kSlotMask);
    // Callbacks may schedule new events at now(): those append to this
    // same FIFO and run in this drain, preserving FIFO order.
    while (ring_[slot].head != nullptr) {
        Node *n = popRing(slot);
        MTIA_DCHECK_EQ(n->when, now_) << ": ring slot holds a foreign tick";
        ++executed_;
        // Zero-copy dispatch: invoke in place in the (already
        // unlinked) slab slot — no closure copy, no move. Anything
        // the callback schedules allocates other slots; this one is
        // recycled right after.
        n->cb();
        n->cb = nullptr;
        freeNode(n);
    }
}

} // namespace mtia

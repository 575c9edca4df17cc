#ifndef SARA_SIM_TASK_H
#define SARA_SIM_TASK_H

/**
 * @file
 * Minimal coroutine runtime for the discrete-event simulator. Each
 * virtual unit executes as a Task coroutine; awaiting a condition
 * parks the coroutine on a wait list, and the scheduler resumes it
 * when the condition may have changed (spurious wakeups are allowed —
 * awaiters re-check their predicate in a loop).
 *
 * Coroutine frames: a coroutine whose first parameter (for a member
 * function, the object) is a FrameArenaOwner takes its frame from that
 * owner's FrameArena, a size-class free list, so the simulator's
 * steady state allocates nothing. Every other coroutine (the tests'
 * free functions and lambdas) uses the global heap. Each frame carries
 * a header naming its arena (null for the heap), so one
 * `operator delete` returns it to where it came from.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <concepts>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <queue>
#include <utility>
#include <vector>

#include "support/logging.h"

namespace sara::sim {

/**
 * Size-class free list for coroutine frames. Blocks come from the heap
 * once and are recycled by size class; all of them go back to the heap
 * on release() or when the arena is destroyed, so its owner must
 * destroy every frame first (declare the arena before anything that
 * holds a Task). Not thread-safe: one arena serves one simulator on
 * one thread.
 */
class FrameArena
{
  public:
    FrameArena() = default;
    FrameArena(const FrameArena &) = delete;
    FrameArena &operator=(const FrameArena &) = delete;
    ~FrameArena();

    /** A block of at least `bytes`, aligned like `::operator new`. */
    void *
    allocate(size_t bytes)
    {
        size_t cls = sizeClass(bytes);
        if (cls < kClasses && free_[cls]) {
            FreeBlock *b = free_[cls];
            free_[cls] = b->next;
            return b;
        }
        return refill(bytes);
    }

    /** Return a block obtained from allocate(`bytes`). */
    void
    deallocate(void *p, size_t bytes) noexcept
    {
        size_t cls = sizeClass(bytes);
        if (cls >= kClasses) {
            heapFree(p);
            return;
        }
        auto *b = static_cast<FreeBlock *>(p);
        b->next = free_[cls];
        free_[cls] = b;
    }

    /** Hand every pooled block back to the heap. All of them must be
     *  free (every frame destroyed); the arena stays usable. */
    void release();

    /** Blocks taken from the heap so far: every allocate() the free
     *  lists could not serve. */
    uint64_t heapBlocks() const { return heapBlocks_; }
    /** Coroutine frames served so far (allocateFrame calls). */
    uint64_t frames() const { return frames_; }

    /** A coroutine frame of `bytes` from `arena`, or from the global
     *  heap when `arena` is null. A header in front of the frame names
     *  the arena, so freeFrame() needs only the frame. */
    static void *
    allocateFrame(FrameArena *arena, size_t bytes)
    {
        void *raw = nullptr;
        if (arena) {
            ++arena->frames_;
            raw = arena->allocate(bytes + kHeader);
        } else {
            raw = heapAllocate(bytes + kHeader);
        }
        *static_cast<FrameArena **>(raw) = arena;
        return static_cast<std::byte *>(raw) + kHeader;
    }

    static void
    freeFrame(void *frame, size_t bytes) noexcept
    {
        void *raw = static_cast<std::byte *>(frame) - kHeader;
        if (FrameArena *arena = *static_cast<FrameArena **>(raw))
            arena->deallocate(raw, bytes + kHeader);
        else
            heapFree(raw);
    }

  private:
    struct FreeBlock
    {
        FreeBlock *next;
    };
    /** Frame header size; keeps the frame at the heap's alignment. */
    static constexpr size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;
    static constexpr size_t kGranule = 16;
    static constexpr size_t kClasses = 256; ///< Pooled blocks < 4 KiB.

    static size_t
    sizeClass(size_t bytes)
    {
        return (bytes + kGranule - 1) / kGranule;
    }

    // Heap paths, out of line (task.cc): the coroutine sites that
    // inline the frame operators then see one allocator pair, never a
    // raw `::operator new` freed through the promise's `operator
    // delete` (which GCC's -Wmismatched-new-delete rejects).
    void *refill(size_t bytes);
    static void *heapAllocate(size_t bytes);
    static void heapFree(void *p) noexcept;

    std::array<FreeBlock *, kClasses> free_{};
    std::vector<void *> blocks_; ///< Every pooled block, freed at exit.
    uint64_t heapBlocks_ = 0;
    uint64_t frames_ = 0;
};

/** A type whose coroutines allocate frames from its FrameArena. */
template <class T>
concept FrameArenaOwner = requires(T &owner) {
    { owner.frameArena() } -> std::same_as<FrameArena &>;
};

/**
 * A coroutine task supporting nested co_await of child tasks
 * (symmetric transfer back to the parent at completion). An empty
 * Task is a completed child: awaiting it costs no frame and no
 * suspension.
 */
class Task
{
  public:
    struct promise_type
    {
        std::coroutine_handle<> continuation;
        std::exception_ptr exception;

        template <FrameArenaOwner Owner, class... Args>
        static void *
        operator new(size_t bytes, Owner &owner, Args &...)
        {
            return FrameArena::allocateFrame(&owner.frameArena(), bytes);
        }
        static void *
        operator new(size_t bytes)
        {
            return FrameArena::allocateFrame(nullptr, bytes);
        }
        static void
        operator delete(void *frame, size_t bytes) noexcept
        {
            FrameArena::freeFrame(frame, bytes);
        }

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                auto cont = h.promise().continuation;
                return cont ? cont : std::noop_coroutine();
            }
            void await_resume() noexcept {}
        };
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
    Task(Task &&other) noexcept : h_(std::exchange(other.h_, {})) {}
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            h_ = std::exchange(other.h_, {});
        }
        return *this;
    }
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return static_cast<bool>(h_); }
    bool done() const { return !h_ || h_.done(); }
    std::coroutine_handle<promise_type> handle() const { return h_; }

    /** Rethrow an exception captured inside the coroutine, if any. */
    void
    rethrowIfFailed() const
    {
        if (h_ && h_.promise().exception)
            std::rethrow_exception(h_.promise().exception);
    }

    /** Awaiter used when a parent task co_awaits a child task. */
    struct ChildAwaiter
    {
        std::coroutine_handle<promise_type> child;
        bool await_ready() const noexcept { return !child || child.done(); }
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            child.promise().continuation = parent;
            return child;
        }
        void
        await_resume()
        {
            if (child && child.promise().exception)
                std::rethrow_exception(child.promise().exception);
        }
    };
    ChildAwaiter operator co_await() const { return ChildAwaiter{h_}; }

  private:
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }
    std::coroutine_handle<promise_type> h_;
};

/**
 * Discrete-event scheduler: a two-level calendar queue of coroutine
 * resumptions. Same-cycle events run in insertion order.
 *
 * Nearly every event in a dataflow simulation lands at `now + 0` or
 * `now + 1` (wakeups, firing delays, link grants); only DRAM responses
 * and fault windows reach hundreds of cycles out. The queue therefore
 * keeps a wheel of `kWheelCycles` per-cycle FIFO buckets for events
 * within the near window (O(1) push, no comparisons) and spills the
 * far tail into a small binary-heap overflow.
 *
 * Determinism contract: events execute in exact `(at, seq)` order,
 * where `seq` is the global scheduling order — identical to a single
 * time-ordered binary heap (asserted by the property tests in
 * tests/test_sched.cc). The wheel only accepts an event for cycle T
 * once `T - now < kWheelCycles`, so every overflow entry for T was
 * scheduled strictly before any wheel entry for T (smaller seq);
 * draining the overflow heap first and then the bucket FIFO replays
 * the exact heap order.
 */
class Scheduler
{
  public:
    /** Raw callback event: fn(arg) runs at its scheduled time. */
    using EventFn = void (*)(void *);

    /** Near-window size (cycles) of the calendar wheel. Power of two. */
    static constexpr uint64_t kWheelCycles = 64;

    uint64_t now() const { return now_; }

    /** Schedule a callback at absolute time `at`. */
    void
    scheduleFnAt(EventFn fn, void *arg, uint64_t at)
    {
        SARA_ASSERT(at >= now_, "scheduling into the past");
        ++pending_;
        if (at - now_ < kWheelCycles) {
            buckets_[at & kWheelMask].push_back(Event{at, seq_++, fn, arg});
            ++pendingNear_;
        } else {
            overflow_.push(Event{at, seq_++, fn, arg});
        }
    }

    /** Schedule `h` to resume at absolute time `at`. */
    void
    scheduleAt(std::coroutine_handle<> h, uint64_t at)
    {
        scheduleFnAt(
            [](void *p) {
                std::coroutine_handle<>::from_address(p).resume();
            },
            h.address(), at);
    }

    void
    scheduleAfter(std::coroutine_handle<> h, uint64_t delay)
    {
        scheduleAt(h, now_ + delay);
    }

    /**
     * Register `fn(arg)` to run at the *end* of the current cycle —
     * after every normal event scheduled for `now()` has executed (the
     * end-of-cycle phase repeats if handlers schedule further
     * same-cycle events). The simulator's same-cycle arbiters (DRAM
     * channel order, PMU port-bus grants) live here: requests staged
     * during the cycle are resolved in one deterministic pass whose
     * order does not depend on the event interleave.
     */
    void
    atCycleEnd(EventFn fn, void *arg)
    {
        eoc_.push_back(Event{now_, 0, fn, arg});
    }

    /**
     * Run until no events remain, or until the next event would lie
     * past `maxCycles` — then stop with `budgetExceeded()` set so the
     * caller can escalate it as a hang. A non-null `cancel` flag is
     * polled once per simulated cycle (relaxed load: the exact stop
     * cycle may trail the store by one poll, which is fine for a
     * wall-clock watchdog); when it goes true the run stops with
     * `cancelled()` set. Returns the final time.
     */
    uint64_t
    run(uint64_t maxCycles = UINT64_MAX,
        const std::atomic<bool> *cancel = nullptr)
    {
        budgetExceeded_ = false;
        cancelled_ = false;
        while (pending_ > 0 || !eoc_.empty()) {
            if (cancel && cancel->load(std::memory_order_relaxed)) {
                cancelled_ = true;
                break;
            }
            // End-of-cycle phase: once the current cycle's normal
            // events drain, run the registered arbiters (they may
            // schedule fresh same-cycle events, re-entering the drain).
            if (!eoc_.empty() &&
                (pending_ == 0 || nextEventAt() > now_)) {
                runEndOfCycle();
                continue;
            }
            uint64_t next = nextEventAt();
            if (next > maxCycles) {
                budgetExceeded_ = true;
                break;
            }
            now_ = next;
            drainCycle();
        }
        return now_;
    }

    bool idle() const { return pending_ == 0; }

    /** The last run() stopped because the next event would overrun the
     *  cycle budget (the budget-cycle event itself still executes). */
    bool budgetExceeded() const { return budgetExceeded_; }

    /** The last run() stopped because its cancel flag went true. */
    bool cancelled() const { return cancelled_; }

    /** Events executed since construction (host-throughput metric). */
    uint64_t eventsExecuted() const { return executed_; }

    /** Awaitable suspending the current task for `cycles`. */
    auto
    delay(uint64_t cycles)
    {
        struct Awaiter
        {
            Scheduler &sched;
            uint64_t cycles;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sched.scheduleAfter(h, cycles);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, cycles};
    }

  private:
    struct Event
    {
        uint64_t at;
        uint64_t seq;
        EventFn fn;
        void *arg;
        bool
        operator>(const Event &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };

    static constexpr uint64_t kWheelMask = kWheelCycles - 1;
    static_assert((kWheelCycles & kWheelMask) == 0,
                  "wheel size must be a power of two");

    /** Execute every event scheduled for `now_` (called with now_
     *  freshly advanced to the earliest pending time). */
    void
    drainCycle()
    {
        // Overflow entries for this cycle carry strictly smaller seq
        // than any bucket entry (see class comment): heap first,
        // bucket FIFO second. An overflow event scheduling at `now`
        // lands in the bucket (distance 0), so this loop terminates.
        while (!overflow_.empty() && overflow_.top().at == now_) {
            Event e = overflow_.top();
            overflow_.pop();
            --pending_;
            ++executed_;
            e.fn(e.arg);
        }
        // Index-based: executing an event may append same-cycle
        // events to this very bucket (reallocating it).
        auto &bucket = buckets_[now_ & kWheelMask];
        for (size_t i = 0; i < bucket.size(); ++i) {
            Event e = bucket[i];
            --pending_;
            --pendingNear_;
            ++executed_;
            e.fn(e.arg);
        }
        bucket.clear(); // Keeps capacity: steady state is alloc-free.
    }

    /** Run the registered end-of-cycle handlers (index-based: a
     *  handler may register further handlers for this same cycle). */
    void
    runEndOfCycle()
    {
        for (size_t i = 0; i < eoc_.size(); ++i) {
            Event e = eoc_[i];
            ++executed_;
            e.fn(e.arg);
        }
        eoc_.clear();
    }

    /** Earliest pending event time (caller guarantees pending_ > 0). */
    uint64_t
    nextEventAt() const
    {
        uint64_t next =
            overflow_.empty() ? UINT64_MAX : overflow_.top().at;
        if (pendingNear_ > 0) {
            for (uint64_t t = now_; t - now_ < kWheelCycles; ++t) {
                if (!buckets_[t & kWheelMask].empty()) {
                    next = std::min(next, t);
                    break;
                }
            }
        }
        SARA_ASSERT(next != UINT64_MAX, "pending events but none found");
        return next;
    }

    std::array<std::vector<Event>, kWheelCycles> buckets_;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        overflow_;
    /** End-of-cycle handlers for the current cycle (atCycleEnd). */
    std::vector<Event> eoc_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;
    uint64_t pending_ = 0;     ///< Events in wheel + overflow.
    uint64_t pendingNear_ = 0; ///< Events in the wheel only.
    uint64_t executed_ = 0;
    bool budgetExceeded_ = false;
    bool cancelled_ = false;
};

/**
 * A wait list: tasks park here until notified, then re-check their
 * condition (level-triggered use: `while (!cond) co_await cv.wait()`).
 * notifyAll() resumes every waiter at the current time in park order;
 * a waiter that finds its condition still false re-parks at the back,
 * behind anything that parked while the wake was in flight.
 */
class CondVar
{
  public:
    explicit CondVar(Scheduler &sched) { bind(sched); }
    CondVar() = default;

    void
    bind(Scheduler &sched)
    {
        sched_ = &sched;
        // Reserve once: park/notify cycles on the hot path then never
        // reallocate (wait lists hold a handful of engines at most).
        waiters_.reserve(4);
    }

    auto
    wait()
    {
        struct Awaiter
        {
            CondVar &cv;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                cv.waiters_.push_back(h);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Wake all waiters (they resume at the current time). */
    void
    notifyAll()
    {
        for (auto h : waiters_)
            sched_->scheduleAfter(h, 0);
        waiters_.clear();
    }

    bool hasWaiters() const { return !waiters_.empty(); }

  private:
    Scheduler *sched_ = nullptr;
    std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace sara::sim

#endif // SARA_SIM_TASK_H

#include "sim/task.h"

#include <new>

namespace sara::sim {

FrameArena::~FrameArena()
{
    for (void *b : blocks_)
        heapFree(b);
}

void
FrameArena::release()
{
    size_t freeBlocks = 0;
    for (const FreeBlock *b : free_)
        for (; b; b = b->next)
            ++freeBlocks;
    SARA_ASSERT(freeBlocks == blocks_.size(),
                "releasing a frame arena with ",
                blocks_.size() - freeBlocks, " frames still alive");
    for (void *b : blocks_)
        heapFree(b);
    blocks_.clear();
    free_.fill(nullptr);
}

void *
FrameArena::refill(size_t bytes)
{
    ++heapBlocks_;
    size_t cls = sizeClass(bytes);
    if (cls >= kClasses)
        return heapAllocate(bytes);
    // Record the slot first: a throwing push_back then leaks nothing.
    blocks_.push_back(nullptr);
    blocks_.back() = heapAllocate(cls * kGranule);
    return blocks_.back();
}

void *
FrameArena::heapAllocate(size_t bytes)
{
    return ::operator new(bytes);
}

void
FrameArena::heapFree(void *p) noexcept
{
    ::operator delete(p);
}

} // namespace sara::sim

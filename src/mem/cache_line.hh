/**
 * @file
 * Per-line tag/metadata storage.  Includes the 1-bit instruction
 * indicator the paper adds to L2 and LLC blocks (§4.2) and a prefetched
 * bit (modern caches distinguish prefetched lines, §5.3).
 */

#ifndef GARIBALDI_MEM_CACHE_LINE_HH
#define GARIBALDI_MEM_CACHE_LINE_HH

#include <type_traits>

#include "common/types.hh"

namespace garibaldi
{

/** Tag and status bits of one cache line frame. */
struct CacheLine
{
    Addr tag = 0;            //!< full line address (paddr >> 6)
    Tick lastUse = 0;        //!< cache-maintained LRU stamp
    bool valid = false;
    bool dirty = false;
    bool isInstr = false;    //!< 1-bit instruction indicator
    bool prefetched = false; //!< inserted by a prefetcher, not yet demanded

    /** Invalidate the frame, clearing all metadata. */
    void
    invalidate()
    {
        valid = false;
        dirty = false;
        isInstr = false;
        prefetched = false;
        lastUse = 0;
    }
};

// One frame per 24 B: every cache's frames are resident for the whole
// run, so padding here is host memory the simulator touches.  Frames
// live in raw set blocks (Cache::setStore) and are never destroyed.
static_assert(sizeof(CacheLine) == 24, "CacheLine packing");
static_assert(std::is_trivially_destructible_v<CacheLine>,
              "set blocks skip frame destructors");

} // namespace garibaldi

#endif // GARIBALDI_MEM_CACHE_LINE_HH

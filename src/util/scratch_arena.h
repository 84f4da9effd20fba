/**
 * @file
 * Per-thread bump allocator for kernel workspaces.
 *
 * The convolution/pooling kernels need large scratch buffers (im2col
 * columns, packed GEMM panels, bounce buffers) on every call; heap
 * allocating them each time dominated small-kernel runtime and
 * fragmented the allocator. A ScratchArena hands out uninitialized,
 * 64-byte-aligned float spans from thread-local blocks that persist
 * across calls, so steady-state kernels allocate nothing.
 *
 * Usage:
 *     auto &arena = ScratchArena::tls();
 *     auto scope = arena.scope();            // rewinds on destruction
 *     float *col = arena.alloc(krows * ospatial);
 *
 * Allocations are valid until their enclosing scope is destroyed;
 * scopes nest. The arena is not thread-safe by design — tls() gives
 * every thread (pool workers included) its own instance. A span
 * allocated before a parallelFor may be *read* concurrently by every
 * worker while the owning scope is alive (the unsplit conv shares its
 * packed GEMM weight panels this way); only
 * allocation and writes are single-thread. The 64-byte alignment
 * makes every span safe for aligned SIMD loads (the AVX2 microkernel
 * reads packed panels with _mm256_load_ps).
 */
#ifndef SCNN_UTIL_SCRATCH_ARENA_H
#define SCNN_UTIL_SCRATCH_ARENA_H

#include <cstdint>
#include <memory>
#include <vector>

namespace scnn {

class ScratchArena
{
  public:
    ScratchArena() = default;
    ScratchArena(const ScratchArena &) = delete;
    ScratchArena &operator=(const ScratchArena &) = delete;

    /** Uninitialized span of @p n floats, 64-byte aligned. */
    float *alloc(int64_t n);

    /** RAII rewind point; destroying it frees everything allocated
     * after scope() was called (capacity is retained for reuse). */
    class Scope
    {
      public:
        explicit Scope(ScratchArena &arena)
            : arena_(arena), block_(arena.current_block_),
              used_(arena.current_used_)
        {
        }
        ~Scope()
        {
            arena_.current_block_ = block_;
            arena_.current_used_ = used_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        ScratchArena &arena_;
        size_t block_;
        int64_t used_;
    };

    Scope scope() { return Scope(*this); }

    /** Total bytes reserved across all blocks (diagnostics). */
    int64_t capacityBytes() const;

    /** The calling thread's arena. */
    static ScratchArena &tls();

  private:
    struct Block
    {
        std::unique_ptr<float[]> data;
        float *base = nullptr; ///< 64-byte-aligned start within data
        int64_t capacity = 0;  ///< floats available from base
    };

    std::vector<Block> blocks_;
    size_t current_block_ = 0; ///< index of the block being bumped
    int64_t current_used_ = 0; ///< floats used in the current block

    friend class Scope;
};

} // namespace scnn

#endif // SCNN_UTIL_SCRATCH_ARENA_H

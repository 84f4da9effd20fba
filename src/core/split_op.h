/**
 * @file
 * What the end-to-end benchmark (perfbench/perfbench.cc) still
 * includes from the split execution layer, which now lives in
 * kernels/conv2d.h, kernels/pool2d.h and kernels/batchnorm.h. Every
 * conv packs its weight panels once per call; there is no panel
 * cache.
 */
#ifndef SCNN_CORE_SPLIT_OP_H
#define SCNN_CORE_SPLIT_OP_H

#include <cstdint>

namespace scnn {

/** All-zero panel-cache counters. They remain only for perfbench's
 * `kernels.panel_cache_*` rows, which read them. */
struct SplitWeightCacheStats
{
    int64_t hits = 0;
    int64_t misses = 0;
};

/** Always all zero (see SplitWeightCacheStats). */
inline SplitWeightCacheStats
splitWeightCacheStats()
{
    return {};
}

} // namespace scnn

#endif // SCNN_CORE_SPLIT_OP_H

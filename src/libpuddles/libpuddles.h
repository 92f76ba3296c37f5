// Umbrella header for the Puddles client library: include this to use pools,
// typed transaction contexts (pool.Run + puddles::Tx), declarative pointer
// maps (PUDDLES_TYPE), typed allocation, and relocation-aware mapping.
#ifndef SRC_LIBPUDDLES_LIBPUDDLES_H_
#define SRC_LIBPUDDLES_LIBPUDDLES_H_

#include "src/daemon/client.h"
#include "src/libpuddles/pool.h"
#include "src/libpuddles/runtime.h"
#include "src/libpuddles/type_registry.h"

#endif  // SRC_LIBPUDDLES_LIBPUDDLES_H_

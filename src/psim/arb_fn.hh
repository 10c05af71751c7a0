/**
 * @file
 * Payload type of the parallel kernel's arbitrated cross-partition
 * sends (ParallelSim::postArbitrated).
 *
 * A leaf header: FabricLink includes it so every component TU can
 * build an arbitrated send without depending on the kernel proper.
 *
 * Payloads are InlineFunction, not std::function: std::function's
 * 16-byte inline buffer heap-allocated once per fabric crossing for
 * every delivery capture bigger than a pointer. The kArbInlineBytes
 * budget keeps the common continuations (a component pointer plus a
 * PktPtr, or a wrapped done-functor) in place; oversized chains fall
 * back to one heap block, exactly as std::function always did.
 */

#ifndef FAMSIM_PSIM_ARB_FN_HH
#define FAMSIM_PSIM_ARB_FN_HH

#include <cstddef>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace famsim {

/** Inline capture budget for arbitrated-send payloads. */
inline constexpr std::size_t kArbInlineBytes = 144;

/** Payload of an arbitrated send (receives the sender's tick). */
using ArbFn = InlineFunction<void(Tick), kArbInlineBytes>;

} // namespace famsim

#endif // FAMSIM_PSIM_ARB_FN_HH

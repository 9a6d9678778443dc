/**
 * @file
 * dpCore ISA cost model.
 *
 * The dpCore is a 64-bit MIPS-like, dual-issue in-order core: one ALU
 * pipe and one LSU pipe issue per cycle (Section 2.2). There is no
 * FPU; the multiplier is a low-power iterative unit that stalls the
 * pipeline for a data-dependent number of cycles; the branch
 * predictor statically predicts backward branches taken. Analytics
 * ISA extensions (BVLD, FILT, CRC32 hashcode, popcount) are single
 * cycle.
 *
 * The costs are properties of the fabricated core, so they are
 * constants rather than per-chip settings. Cycle numbers come
 * straight from the paper where stated: NTZ-via-popcount costs 4
 * cycles vs 13 for NLZ (Section 5.4); the BVLD/FILT filter loop
 * lands at 1.65 cycles/tuple (Section 5.3).
 */

#ifndef DPU_CORE_ISA_HH
#define DPU_CORE_ISA_HH

#include "sim/types.hh"

namespace dpu::core {

/** Single-issue ALU op (add, sub, logic, shift, compare). */
constexpr sim::Cycles aluCycles = 1;

/** DMEM load/store through the LSU pipe. */
constexpr sim::Cycles lsuCycles = 1;

/** Single-cycle analytics extensions. */
constexpr sim::Cycles crc32Cycles = 1;
constexpr sim::Cycles popcountCycles = 1;

/** Count-trailing-zeros sequence built on popcount (Sec 5.4). */
constexpr sim::Cycles ntzCycles = 4;
/** Count-leading-zeros sequence without hardware help. */
constexpr sim::Cycles nlzCycles = 13;

/**
 * Iterative multiplier: stalls for mulBaseCycles plus one cycle per
 * mulBitsPerCycle significant bits of the smaller operand
 * ("variable latency multiplier", Section 5.4).
 */
constexpr sim::Cycles mulBaseCycles = 3;
constexpr unsigned mulBitsPerCycle = 8;

/** Iterative divide (also used for Q10.22 divide). */
constexpr sim::Cycles divCycles = 20;

/** Taken-branch redirect when correctly predicted. */
constexpr sim::Cycles branchCycles = 1;
/** Mispredict penalty (short in-order pipeline). */
constexpr sim::Cycles branchMissCycles = 3;

/** Interrupt entry+exit overhead (ATE software RPC, mailbox). */
constexpr sim::Cycles interruptCycles = 60;

/** Mul stall cycles for a value with @p bits significant bits. */
constexpr sim::Cycles
mulCycles(unsigned bits)
{
    return mulBaseCycles + (bits + mulBitsPerCycle - 1) / mulBitsPerCycle;
}

} // namespace dpu::core

#endif // DPU_CORE_ISA_HH

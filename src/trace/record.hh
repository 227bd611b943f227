/**
 * @file
 * The dynamic instruction record replayed by the performance model.
 * One record corresponds to one retired instruction on the traced
 * machine, in program order.
 */

#ifndef S64V_TRACE_RECORD_HH
#define S64V_TRACE_RECORD_HH

#include <cstdint>

#include "common/types.hh"
#include "isa/instr.hh"

namespace s64v
{

/** Flag bits in TraceRecord::flags. */
enum TraceFlags : std::uint8_t
{
    kFlagTaken = 1 << 0,      ///< branch outcome: taken.
    kFlagPrivileged = 1 << 1, ///< executed in kernel mode.
    kFlagSharedData = 1 << 2, ///< memory op touches SMP-shared data.
};

/**
 * One dynamic instruction. 24 bytes, trivially copyable; traces are
 * stored as flat vectors and written verbatim to trace files.
 */
struct TraceRecord
{
    Addr pc = 0;          ///< virtual PC of the instruction.
    Addr ea = 0;          ///< effective address (mem ops) or branch
                          ///< target (control transfer); else 0.
    InstrClass cls = InstrClass::Nop;
    RegId dst = kNoReg;   ///< destination register or kNoReg.
    RegId src1 = kNoReg;  ///< first source or kNoReg.
    RegId src2 = kNoReg;  ///< second source or kNoReg.
    std::uint8_t size = 0;///< access size in bytes for mem ops.
    std::uint8_t flags = 0;
    std::uint16_t pad = 0;

    bool taken() const { return flags & kFlagTaken; }
    bool privileged() const { return flags & kFlagPrivileged; }
    bool sharedData() const { return flags & kFlagSharedData; }

    bool isLoad() const { return isLoadClass(cls); }
    bool isStore() const { return isStoreClass(cls); }
    bool isMem() const { return isMemClass(cls); }
    bool isBranch() const { return isBranchClass(cls); }
    bool isCondBranch() const { return isCondBranchClass(cls); }
};

static_assert(sizeof(TraceRecord) == 24,
              "TraceRecord layout is part of the trace file format");

} // namespace s64v

#endif // S64V_TRACE_RECORD_HH

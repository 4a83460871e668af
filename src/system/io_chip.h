/**
 * @file
 * The Piranha I/O node (paper §2, Figure 2).
 *
 * Each I/O chip is a stripped-down processing chip with one CPU and
 * its memory; its router has two links instead of four. The defining
 * novelty is that I/O is a full-fledged member of the interconnect
 * and the global shared-memory coherence protocol: the PCI/X device
 * interface sits behind a *reused first-level data-cache module*, so
 * device DMA is simply coherent memory traffic, the I/O chip's memory
 * fully participates in the directory protocol, and the on-chip CPU
 * can run device drivers next to the hardware.
 *
 * Modeling simplification (documented in DESIGN.md): the chip
 * assembly reuses the 8-bank L2/MC structure of the processing chip
 * (the paper's I/O chip has a single L2/MC slice); the CPU count is
 * one plus the dL1 slot occupied by the PCI/X engine.
 */

#ifndef PIRANHA_SYSTEM_IO_CHIP_H
#define PIRANHA_SYSTEM_IO_CHIP_H

#include <functional>
#include <memory>

#include "system/chip.h"

namespace piranha {

/**
 * The PCI/X DMA engine: issues coherent line-granularity accesses
 * through the dL1 it is attached to. Writes of full lines use the
 * write-hint path (no useless fetch of the old contents), exactly
 * what wh64 exists for.
 */
class IoDevice : public SimObject
{
  public:
    using DoneFn = std::function<void()>;

    IoDevice(EventQueue &eq, std::string name, L1Cache &dl1,
             const Clock &clk)
        : SimObject(eq, std::move(name)), _dl1(dl1), _clk(clk)
    {
    }

    /** DMA-write @p len bytes of @p fill pattern to memory at @p dst. */
    void
    dmaWrite(Addr dst, std::size_t len, std::uint64_t fill, DoneFn done)
    {
        startOp(dst, len, true, fill, std::move(done));
    }

    /** DMA-read @p len bytes (device consumes them). */
    void
    dmaRead(Addr src, std::size_t len, DoneFn done)
    {
        startOp(src, len, false, 0, std::move(done));
    }

    Scalar statLinesMoved;

  private:
    void
    startOp(Addr base, std::size_t len, bool write, std::uint64_t fill,
            DoneFn done)
    {
        auto remaining =
            std::make_shared<std::size_t>((len + lineBytes - 1) /
                                          lineBytes);
        auto fn = std::make_shared<DoneFn>(std::move(done));
        for (std::size_t i = 0; i * lineBytes < len; ++i) {
            Addr line = lineAlign(base) + i * lineBytes;
            issueLine(line, write, fill, remaining, fn);
        }
    }

    void
    issueLine(Addr line, bool write, std::uint64_t fill,
              std::shared_ptr<std::size_t> remaining,
              std::shared_ptr<DoneFn> done)
    {
        if (write) {
            // Claim the full line without fetching it, then stream
            // the payload through the store buffer.
            MemReq wh;
            wh.op = MemOp::Wh64;
            wh.addr = line;
            _dl1.access(wh, [this, line, fill, remaining,
                             done](const MemRsp &) {
                for (unsigned w = 0; w < lineBytes / 8; ++w) {
                    MemReq st;
                    st.op = MemOp::Store;
                    st.addr = line + w * 8;
                    st.size = 8;
                    st.value = fill + w;
                    bool last = w == lineBytes / 8 - 1;
                    _dl1.access(st, [this, last, remaining,
                                     done](const MemRsp &) {
                        if (last)
                            finishLine(remaining, done);
                    });
                }
            });
        } else {
            MemReq ld;
            ld.op = MemOp::Load;
            ld.addr = line;
            ld.size = 8;
            _dl1.access(ld, [this, remaining, done](const MemRsp &) {
                finishLine(remaining, done);
            });
        }
    }

    void
    finishLine(std::shared_ptr<std::size_t> remaining,
               std::shared_ptr<DoneFn> done)
    {
        ++statLinesMoved;
        if (--*remaining == 0 && *done)
            (*done)();
    }

    L1Cache &_dl1;
    const Clock &_clk;
};

/** An I/O node: one CPU, the DMA engine behind a reused dL1. */
class PiranhaIoChip
{
  public:
    PiranhaIoChip(EventQueue &eq, std::string name, NodeId node,
                  const AddressMap &amap, Network *net)
        : _params(ioParams()),
          _chip(eq, name, node, amap, _params, net),
          _device(eq, name + ".pcix", _chip.dl1(1), _chip.clock())
    {
    }

    PiranhaChip &chip() { return _chip; }
    IoDevice &device() { return _device; }

    /** I/O nodes connect with two links (paper: redundancy). */
    static constexpr unsigned channels = 2;

  private:
    static ChipParams
    ioParams()
    {
        ChipParams p;
        p.cpus = 2; // slot 0: the CPU; slot 1's dL1 fronts the PCI/X
        return p;
    }

    ChipParams _params;
    PiranhaChip _chip;
    IoDevice _device;
};

} // namespace piranha

#endif // PIRANHA_SYSTEM_IO_CHIP_H

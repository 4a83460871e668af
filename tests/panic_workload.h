/**
 * @file
 * A workload that panics the simulator: every stream's first op has a
 * kind outside StreamOp::Kind, so the first core to execute it hits
 * Core::execute's "bad op kind" panic. No protocol fix can remove
 * that panic, so the sweep harness tests use it to check that a
 * panicking job comes back as a failed result on both tiers.
 */

#ifndef PIRANHA_TESTS_PANIC_WORKLOAD_H
#define PIRANHA_TESTS_PANIC_WORKLOAD_H

#include <memory>
#include <string>

#include "workload/workload.h"

namespace piranha {

class PanicWorkload : public Workload
{
  public:
    const std::string &name() const override { return _name; }
    WorkloadIlp ilp() const override { return {}; }

    std::unique_ptr<InstrStream>
    makeStream(EventQueue &, unsigned, unsigned, std::uint64_t, NodeId,
               const AddressMap &) override
    {
        return std::make_unique<BadOpStream>();
    }

  private:
    struct BadOpStream : InstrStream
    {
        StreamOp
        next() override
        {
            StreamOp op;
            op.kind = static_cast<StreamOp::Kind>(0x7f);
            op.pc = 0x1000;
            return op;
        }
    };

    std::string _name = "panic";
};

} // namespace piranha

#endif // PIRANHA_TESTS_PANIC_WORKLOAD_H

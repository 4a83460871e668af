/**
 * @file
 * Home engine microcode (paper §2.5.3).
 *
 * The home engine exports memory homed at this node. It implements
 * the invalidation-based directory protocol with the paper's
 * distinguishing properties:
 *
 *  - no NAKs or retries: forwarded requests are always serviceable by
 *    their targets, so every directory state change completes
 *    immediately (no DASH-style "ownership change" confirmations);
 *  - clean-exclusive optimization: a read returns an exclusive copy
 *    when there are no other sharers;
 *  - reply forwarding from remote owners (3-hop transactions);
 *  - eager exclusive replies: ownership is granted before all
 *    invalidations complete; acknowledgements are gathered at the
 *    requesting node;
 *  - cruise-missile invalidations: at most cmiFanout invalidation
 *    packets are injected per transaction, each visiting a
 *    predetermined set of nodes, with the final node acknowledging;
 *  - write-back races resolve without retries: a write-back arriving
 *    from a node that is no longer the directory owner is dropped and
 *    acknowledged with expectFwd, telling the ex-owner to service one
 *    forwarded request from its write-back buffer.
 *
 * Sharing at the home node itself is never recorded in the directory;
 * the chip's duplicate L1 tags and L2 state cover it (§2.5.2), which
 * is why local grants need no directory update.
 */

#include "fault/injector.h"
#include "proto/protocol_engine.h"

namespace piranha {

namespace {

DirEntry
unpackDir(const ProtocolEngine &pe, const TsrfEntry &t)
{
    return decodeDirEntry(pe.injector(), pe.node(), t.addr,
                          t.local.dirBits, pe.amap().numNodes);
}

} // namespace

void
installHomeProgram(ProtocolEngine &pe)
{
    MicroAssembler a;
    unsigned num_nodes = pe.amap().numNodes;

    auto cc = [](NetMsgType t) { return static_cast<unsigned>(t); };

    // ---- Remote requests: ReqS / ReqX / ReqUpgrade / ReqWh64 ----
    a.label("hReq");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        // Hold the L2 pending entry for the whole transaction: local
        // requests must not observe the directory or memory between
        // our read and the completion of our posted updates.
        PeLocalMode mode = t.origMsg.type == NetMsgType::ReqS
                               ? PeLocalMode::Share
                               : PeLocalMode::Excl;
        pe.sendPeReadLocal(t, mode, true);
    });
    a.lreceive({{ccLocalReadRsp, "hReq_local"}});

    a.label("hReq_local");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.dir = unpackDir(pe, t);
        t.data = t.local.data;
        t.hasData = t.local.hasData;
        t.dirty = t.local.localDirty;
        t.flagA = t.local.localPresent;
    });
    a.test(
        [](TsrfEntry &t) -> unsigned {
            bool is_s = t.origMsg.type == NetMsgType::ReqS;
            if (t.dir.state() == DirState::Exclusive) {
                if (t.dir.owner() == t.requester)
                    return 4; // write-back race
                return is_s ? 1 : 3;
            }
            return is_s ? 0 : 2;
        },
        {{0, "hReqS_home"},
         {1, "hReqS_fwd"},
         {2, "hReqX_home"},
         {3, "hReqX_fwd"},
         {4, "hReq_wbRace"}});

    // Read served from home memory (or local chip data).
    a.label("hReqS_home");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        bool clean_excl = t.dir.empty() && !t.flagA;
        t.flagB = clean_excl;
        if (clean_excl)
            t.dir.setExclusive(t.requester);
        else
            t.dir.addSharer(t.requester);
        std::uint64_t d = t.dir.pack();
        pe.memWrite(t.addr, t.dirty ? &t.data : nullptr, &d);
        t.dirty = false;
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = t.flagB ? NetMsgType::RepX : NetMsgType::RepS;
        p.exclusive = t.flagB;
        p.addr = t.addr;
        p.dst = t.requester;
        p.requester = t.requester;
        p.hasData = true;
        p.data = t.data;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) { pe.sendPeComplete(t); });
    a.halt();

    // Read with a remote exclusive owner: 3-hop with reply
    // forwarding; the home waits for the sharing write-back.
    a.label("hReqS_fwd");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.ownerReg = t.dir.owner();
        t.dir.addSharer(t.requester); // Exclusive -> Shared{O, R}
        std::uint64_t d = t.dir.pack();
        pe.memWrite(t.addr, nullptr, &d);
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdS;
        p.addr = t.addr;
        p.dst = t.ownerReg;
        p.requester = t.requester;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.label("hReqS_wait");
    a.receive({{cc(NetMsgType::ShareWb), "hReqS_swb"},
               {cc(NetMsgType::Wb), "hReqS_cross"}});
    a.label("hReqS_swb");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        pe.memWrite(t.addr, &t.msg.data, nullptr);
    });
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) { pe.sendPeComplete(t); });
    a.halt();
    a.label("hReqS_cross");
    // The ex-owner's replacement write-back crossed our forward: drop
    // the data (the directory already changed) and tell the ex-owner
    // a forwarded request is inbound.
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.msg.src;
        p.expectFwd = true;
        p.reqId = t.msg.reqId;
        pe.sendNet(std::move(p));
    });
    a.jump("hReqS_wait");

    // Exclusive request with no remote owner: eager exclusive reply
    // plus cruise-missile invalidations.
    a.label("hReqX_home");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.dir.sharerList(t.cmiTargets);
        std::erase(t.cmiTargets, t.requester);
        t.flagB = t.origMsg.type == NetMsgType::ReqUpgrade &&
                  t.dir.mayBeSharer(t.requester);
        if (t.flagB && t.dirty)
            panic("home: dirty local data under a shared directory");
        pe.planCmi(t);
        t.dir.setExclusive(t.requester);
        std::uint64_t d = t.dir.pack();
        pe.memWrite(t.addr, t.dirty ? &t.data : nullptr, &d);
        t.dirty = false;
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.addr = t.addr;
        p.dst = t.requester;
        p.requester = t.requester;
        p.reqId = t.reqId;
        p.ackCount = static_cast<int>(t.numChains);
        if (t.flagB) {
            p.type = NetMsgType::RepUpgrade;
        } else {
            p.type = NetMsgType::RepX;
            p.exclusive = true;
            p.hasData = t.origMsg.type != NetMsgType::ReqWh64;
            p.data = t.data;
        }
        pe.sendNet(std::move(p));
    });
    a.label("hReqX_chains");
    a.test([](TsrfEntry &t) {
        return t.chainIdx < t.numChains ? 1u : 0u;
    },
           {{0, "hReqX_done"}, {1, "hReqX_send"}});
    a.label("hReqX_send");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) { pe.sendNextChain(t); });
    a.jump("hReqX_chains");
    a.label("hReqX_done");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) { pe.sendPeComplete(t); });
    a.halt();

    // Exclusive request with a remote exclusive owner: forward; the
    // directory changes immediately (no confirmation messages).
    a.label("hReqX_fwd");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.ownerReg = t.dir.owner();
        t.dir.setExclusive(t.requester);
        std::uint64_t d = t.dir.pack();
        pe.memWrite(t.addr, nullptr, &d);
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdX;
        p.addr = t.addr;
        p.dst = t.ownerReg;
        p.requester = t.requester;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) { pe.sendPeComplete(t); });
    a.halt();

    // The requester is the recorded owner: its write-back must be in
    // flight. Wait for it (no NAK), then serve from fresh memory.
    a.label("hReq_wbRace");
    a.receive({{cc(NetMsgType::Wb), "hReq_wbArrived"}});
    a.label("hReq_wbArrived");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        if (t.msg.dirty)
            pe.memWrite(t.addr, &t.msg.data, nullptr);
        t.data = t.msg.data;
        t.hasData = true;
        t.dirty = false;
        t.flagA = false; // no local copies involved
        t.dir.clear();
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.msg.src;
        p.expectFwd = false;
        p.reqId = t.msg.reqId;
        pe.sendNet(std::move(p));
    });
    a.test([](TsrfEntry &t) {
        return t.origMsg.type == NetMsgType::ReqS ? 1u : 0u;
    },
           {{0, "hReqX_home"}, {1, "hReqS_home"}});

    // ---- Spawned write-back (replacement from a remote owner) ----
    a.label("hWb");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeReadLocal(t, PeLocalMode::DirOnly);
    });
    a.lreceive({{ccLocalReadRsp, "hWb_dir"}});
    a.label("hWb_dir");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.dir = unpackDir(pe, t);
    });
    a.test(
        [](TsrfEntry &t) {
            return (t.dir.state() == DirState::Exclusive &&
                    t.dir.owner() == t.origMsg.src)
                       ? 1u
                       : 0u;
        },
        {{0, "hWb_stale"}, {1, "hWb_ok"}});
    a.label("hWb_ok");
    a.op(MicroOp::SET, [&pe, num_nodes](TsrfEntry &t) {
        DirEntry nd(num_nodes);
        if (t.origMsg.retainShared)
            nd.addSharer(t.origMsg.src);
        std::uint64_t d = nd.pack();
        pe.memWrite(t.addr,
                    t.origMsg.dirty ? &t.origMsg.data : nullptr, &d);
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.origMsg.src;
        p.expectFwd = false;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.halt();
    a.label("hWb_stale");
    // The sender is no longer the owner: a forwarded request is (or
    // was) heading its way; it must service it from its write-back
    // buffer. Drop the stale data.
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.origMsg.src;
        p.expectFwd = true;
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.halt();

    // ---- Local GetS escalated by the L2 (directory was exclusive) --
    a.label("hLocalS");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeReadLocal(t, PeLocalMode::Share);
    });
    a.lreceive({{ccLocalReadRsp, "hLocalS_dir"}});
    a.label("hLocalS_dir");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.dir = unpackDir(pe, t);
        t.data = t.local.data;
        t.hasData = t.local.hasData;
        t.flagA = false; // data-sent flag for the fwd path
        t.flagB = false; // share-wb-received flag
    });
    a.test([](TsrfEntry &t) {
        return t.dir.state() == DirState::Exclusive ? 1u : 0u;
    },
           {{0, "hLocalS_home"}, {1, "hLocalS_fwd"}});
    a.label("hLocalS_home");
    // The remote owner disappeared between the L2's directory read
    // and ours: memory is current. Home sharing is not recorded in
    // the directory, so no update is needed.
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeData(t, true, t.dir.empty(), FillSource::MemLocal);
    });
    a.halt();
    a.label("hLocalS_fwd");
    a.op(MicroOp::SET, [&pe, num_nodes](TsrfEntry &t) {
        t.ownerReg = t.dir.owner();
        DirEntry nd(num_nodes);
        nd.addSharer(t.ownerReg);
        t.dir = nd;
        std::uint64_t d = nd.pack();
        pe.memWrite(t.addr, nullptr, &d);
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdS;
        p.addr = t.addr;
        p.dst = t.ownerReg;
        p.requester = pe.node();
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    // Both the forwarded reply and the sharing write-back arrive
    // here, in either order; crossing write-backs may interleave.
    a.label("hLS_wait");
    a.receive({{cc(NetMsgType::FwdRepS), "hLS_data"},
               {cc(NetMsgType::ShareWb), "hLS_swb"},
               {cc(NetMsgType::Wb), "hLS_cross"}});
    a.label("hLS_data");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        t.flagA = true;
        pe.sendPeData(t, true, false, FillSource::RemoteDirty);
    });
    a.test([](TsrfEntry &t) { return t.flagB ? 1u : 0u; },
           {{0, "hLS_wait"}, {1, "hLS_done"}});
    a.label("hLS_swb");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.flagB = true;
        pe.memWrite(t.addr, &t.msg.data, nullptr);
    });
    a.test([](TsrfEntry &t) { return t.flagA ? 1u : 0u; },
           {{0, "hLS_wait"}, {1, "hLS_done"}});
    a.label("hLS_cross");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.msg.src;
        p.expectFwd = true;
        p.reqId = t.msg.reqId;
        pe.sendNet(std::move(p));
    });
    a.jump("hLS_wait");
    a.label("hLS_done");
    a.halt();

    // ---- Local exclusive-class escalated by the L2 ----
    a.label("hLocalX");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeReadLocal(t, PeLocalMode::Share);
    });
    a.lreceive({{ccLocalReadRsp, "hLocalX_dir"}});
    a.label("hLocalX_dir");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        t.dir = unpackDir(pe, t);
        t.data = t.local.data;
        t.hasData = t.local.hasData;
    });
    a.test(
        [](TsrfEntry &t) -> unsigned {
            switch (t.dir.state()) {
              case DirState::Uncached:
                return 0;
              case DirState::Exclusive:
                return 2;
              default:
                return 1;
            }
        },
        {{0, "hLX_grant"}, {1, "hLX_inval"}, {2, "hLX_fwd"}});
    a.label("hLX_grant");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        pe.sendPeData(t, t.hasData, true, FillSource::MemLocal);
    });
    a.halt();
    a.label("hLX_inval");
    a.op(MicroOp::SET, [&pe, num_nodes](TsrfEntry &t) {
        t.dir.sharerList(t.cmiTargets);
        pe.planCmi(t);
        t.acksLeft = static_cast<int>(t.numChains);
        DirEntry nd(num_nodes);
        t.dir = nd;
        std::uint64_t d = nd.pack();
        pe.memWrite(t.addr, nullptr, &d);
    });
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        // Eager exclusive grant: the L1 proceeds while invalidation
        // acknowledgements are still being gathered here.
        pe.sendPeData(t, t.hasData, true, FillSource::MemLocal);
    });
    a.label("hLX_chains");
    a.test([](TsrfEntry &t) {
        return t.chainIdx < t.numChains ? 1u : 0u;
    },
           {{0, "hLX_acks"}, {1, "hLX_send"}});
    a.label("hLX_send");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) { pe.sendNextChain(t); });
    a.jump("hLX_chains");
    a.label("hLX_acks");
    a.test([](TsrfEntry &t) { return t.acksLeft == 0 ? 0u : 1u; },
           {{0, "hLX_done"}, {1, "hLX_recv"}});
    a.label("hLX_recv");
    a.receive({{cc(NetMsgType::InvalAck), "hLX_gotAck"}});
    a.label("hLX_gotAck");
    a.op(MicroOp::SET, [](TsrfEntry &t) { --t.acksLeft; });
    a.jump("hLX_acks");
    a.label("hLX_done");
    a.halt();
    a.label("hLX_fwd");
    a.op(MicroOp::SET, [&pe, num_nodes](TsrfEntry &t) {
        t.ownerReg = t.dir.owner();
        DirEntry nd(num_nodes);
        t.dir = nd;
        std::uint64_t d = nd.pack();
        pe.memWrite(t.addr, nullptr, &d);
    });
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::FwdX;
        p.addr = t.addr;
        p.dst = t.ownerReg;
        p.requester = pe.node();
        p.reqId = t.reqId;
        pe.sendNet(std::move(p));
    });
    a.label("hLX_wait");
    a.receive({{cc(NetMsgType::FwdRepX), "hLX_fx"},
               {cc(NetMsgType::Wb), "hLX_cross"}});
    a.label("hLX_fx");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.data = t.msg.data;
        pe.sendPeData(t, true, true, FillSource::RemoteDirty);
    });
    a.halt();
    a.label("hLX_cross");
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        NetPacket p;
        p.type = NetMsgType::WbAck;
        p.addr = t.addr;
        p.dst = t.msg.src;
        p.expectFwd = true;
        p.reqId = t.msg.reqId;
        pe.sendNet(std::move(p));
    });
    a.jump("hLX_wait");

    MicroProgram prog = a.finalize();
    pe.installProgram(std::move(prog),
                      {{NetMsgType::ReqS, "hReq"},
                       {NetMsgType::ReqX, "hReq"},
                       {NetMsgType::ReqUpgrade, "hReq"},
                       {NetMsgType::ReqWh64, "hReq"},
                       {NetMsgType::Wb, "hWb"}},
                      {{PeOp::ReqS, "hLocalS"},
                       {PeOp::ReqX, "hLocalX"},
                       {PeOp::ReqUpgrade, "hLocalX"}});
}

} // namespace piranha

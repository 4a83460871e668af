/**
 * @file
 * Remote engine microcode (paper §2.5.1, §2.5.3).
 *
 * The remote engine imports memory whose home is a remote node. A
 * typical read transaction costs four instructions here — a SEND of
 * the request to the home, a RECEIVE of the reply, a TEST of a state
 * variable, and an LSEND that replies to the waiting processor —
 * matching the paper's occupancy example.
 *
 * The engine also owns the node's write-back buffer: an evicted
 * exclusive line is held until the home acknowledges the write-back,
 * which lets the node service forwarded requests that raced with the
 * replacement (the no-NAK guarantee). Early forwarded requests (that
 * arrive before this node's own fill completes) queue behind the
 * active TSRF entry for the line and are serviced right after it
 * retires — the paper's footnote-3 buffering, realized through the
 * per-line transaction serialization.
 */

#include "proto/protocol_engine.h"

namespace piranha {

void
installRemoteProgram(ProtocolEngine &pe)
{
    MicroAssembler a;
    auto cc = [](NetMsgType t) { return static_cast<unsigned>(t); };

    auto home_of = [&pe](Addr addr) { return pe.amap().home(addr); };
    // A local request's SEND to the line's home.
    auto request = [&pe, home_of](NetMsgType type) {
        return [&pe, home_of, type](TsrfEntry &t) {
            pe.sendNet(pe.packet(t, type, home_of(t.addr)));
        };
    };
    // A reply's fill of the waiting L2 bank.
    auto fill = [&pe](bool exclusive, FillSource source) {
        return [&pe, exclusive, source](TsrfEntry &t) {
            t.data = t.msg.data;
            pe.sendPeData(t, true, exclusive, source);
        };
    };
    // The head of a forwarded request at `entry`: take the line from
    // the write-back buffer if it is there, else read it from the
    // chip (in @p mode), falling back to the buffer when the chip's
    // copy was evicted while the forward was being dispatched. Falls
    // through to `<p>_send` with the line in t.data.
    auto fwd_head = [&](const char *entry, const std::string &p,
                        PeLocalMode mode) {
        a.label(entry);
        a.test(
            [&pe](TsrfEntry &t) {
                return pe.wbBuffer.contains(lineNum(t.addr)) ? 1u : 0u;
            },
            {{0, p + "_chip"}, {1, p + "_buf"}});
        a.label(p + "_chip");
        a.op(MicroOp::LSEND,
             [&pe, mode](TsrfEntry &t) { pe.sendPeReadLocal(t, mode); });
        a.lreceive({{ccLocalReadRsp, p + "_rsp"}});
        a.label(p + "_rsp");
        a.test(
            [](TsrfEntry &t) { return t.local.localPresent ? 1u : 0u; },
            {{0, p + "_buf"}, {1, p + "_haveChip"}});
        a.label(p + "_haveChip");
        a.op(MicroOp::SET, [](TsrfEntry &t) { t.data = t.local.data; });
        a.jump(p + "_send");
        a.label(p + "_buf");
        a.op(MicroOp::SET, [&pe](TsrfEntry &t) { pe.takeFromWbBuffer(t); });
        a.label(p + "_send");
    };

    // ---- Local read request (L2 miss, remote home) ----
    a.label("rReqS");
    a.op(MicroOp::SEND, request(NetMsgType::ReqS));
    a.receive({{cc(NetMsgType::RepS), "rS_shared"},
               {cc(NetMsgType::RepX), "rS_cleanExcl"},
               {cc(NetMsgType::FwdRepS), "rS_fwdS"},
               {cc(NetMsgType::FwdRepX), "rS_fwdX"}});
    a.label("rS_shared");
    a.halt(fill(false, FillSource::MemRemote));
    a.label("rS_cleanExcl");
    a.halt(fill(true, FillSource::MemRemote));
    a.label("rS_fwdS");
    a.halt(fill(false, FillSource::RemoteDirty));
    a.label("rS_fwdX");
    a.halt(fill(true, FillSource::RemoteDirty));

    // ---- Local exclusive request ----
    a.label("rReqX");
    a.op(MicroOp::SEND, request(NetMsgType::ReqX));
    a.jump("rX_wait");
    a.label("rReqUpgrade");
    a.op(MicroOp::SEND, request(NetMsgType::ReqUpgrade));
    a.label("rX_wait");
    a.receive({{cc(NetMsgType::RepX), "rX_data"},
               {cc(NetMsgType::RepUpgrade), "rX_perm"},
               {cc(NetMsgType::FwdRepX), "rX_fwd"}});
    a.label("rX_data");
    // Eager exclusive reply: grant the line now, gather
    // invalidation acks afterwards.
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = t.msg.ackCount;
        t.data = t.msg.data;
        pe.sendPeData(t, t.msg.hasData, true, FillSource::MemRemote);
    });
    a.jump("rX_acks");
    a.label("rX_perm");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = t.msg.ackCount;
        pe.sendPeData(t, false, true, FillSource::MemRemote);
    });
    a.jump("rX_acks");
    a.label("rX_fwd");
    a.op(MicroOp::LSEND, [&pe](TsrfEntry &t) {
        t.acksLeft = 0;
        t.data = t.msg.data;
        pe.sendPeData(t, true, true, FillSource::RemoteDirty);
    });
    emitAckGather(a, "rX");

    // ---- Forwarded read: this node is the exclusive owner ----
    // The requester gets the data and the home a sharing write-back.
    fwd_head("rFwdS", "rFS", PeLocalMode::Share);
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        pe.sendNet(pe.packet(t, NetMsgType::FwdRepS, t.requester));
    });
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        pe.sendNet(pe.packet(t, NetMsgType::ShareWb, home_of(t.addr)));
    });
    a.halt();

    // ---- Forwarded exclusive: hand the line to the requester ----
    fwd_head("rFwdX", "rFX", PeLocalMode::Excl);
    a.op(MicroOp::SEND, [&pe](TsrfEntry &t) {
        pe.sendNet(pe.packet(t, NetMsgType::FwdRepX, t.requester));
    });
    a.halt();

    // ---- Cruise-missile invalidation visiting this node ----
    a.label("rInval");
    a.op(MicroOp::LSEND,
         [&pe](TsrfEntry &t) { pe.sendPeInvalLocal(t); });
    a.lreceive({{ccLocalDone, "rInv_done"}});
    a.label("rInv_done");
    a.test([](TsrfEntry &t) {
        return t.origMsg.cmiRoute.empty() ? 0u : 1u;
    },
           {{0, "rInv_ack"}, {1, "rInv_fwd"}});
    a.label("rInv_ack");
    a.halt([&pe](TsrfEntry &t) {
        pe.sendNet(pe.packet(t, NetMsgType::InvalAck, t.requester));
    });
    a.label("rInv_fwd");
    a.halt([&pe](TsrfEntry &t) {
        const std::vector<NodeId> &route = t.origMsg.cmiRoute;
        auto p = pe.packet(t, NetMsgType::Inval, route.front());
        p.cmiRoute.assign(route.begin() + 1, route.end());
        pe.sendNet(std::move(p));
    });

    // ---- Node-level write-back of an exclusive line ----
    a.label("rWb");
    a.op(MicroOp::SET, [&pe](TsrfEntry &t) {
        // The L2 hook filled the buffer at eviction time; a racing
        // forward may even have consumed it already, so its forward
        // marks stay as they are.
        t.data = t.origLocal.data;
        t.dirty = t.origLocal.victimDirty;
        pe.stashWriteBack(t.addr, t.data);
    });
    a.op(MicroOp::SEND, [&pe, home_of](TsrfEntry &t) {
        auto p = pe.packet(t, NetMsgType::Wb, home_of(t.addr));
        p.dirty = t.dirty;
        pe.sendNet(std::move(p));
    });
    a.receive({{cc(NetMsgType::WbAck), "rWb_ack"}});
    a.label("rWb_ack");
    a.test(
        [&pe](TsrfEntry &t) {
            if (!t.msg.expectFwd)
                return 0u;
            // A forwarded request raced with the replacement; it may
            // already have been serviced from the buffer.
            return pe.wbBuffer[lineNum(t.addr)].fwdServiced ? 0u : 1u;
        },
        {{0, "rWb_release"}, {1, "rWb_keep"}});
    a.label("rWb_release");
    a.halt([&pe](TsrfEntry &t) { pe.wbBuffer.erase(lineNum(t.addr)); });
    a.label("rWb_keep");
    // Keep the data until the inbound forward (queued behind this
    // thread or still in the network) is serviced.
    a.halt([&pe](TsrfEntry &t) {
        pe.wbBuffer[lineNum(t.addr)].releaseAfterFwd = true;
    });

    MicroProgram prog = a.finalize();
    pe.installProgram(std::move(prog),
                      {{NetMsgType::FwdS, "rFwdS"},
                       {NetMsgType::FwdX, "rFwdX"},
                       {NetMsgType::Inval, "rInval"}},
                      {{PeOp::ReqS, "rReqS"},
                       {PeOp::ReqX, "rReqX"},
                       {PeOp::ReqUpgrade, "rReqUpgrade"},
                       {PeOp::WbExcl, "rWb"}});
}

} // namespace piranha

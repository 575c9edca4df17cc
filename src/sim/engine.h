#ifndef SARA_SIM_ENGINE_H
#define SARA_SIM_ENGINE_H

/**
 * @file
 * Private to src/sim: the runtime state behind Simulator's engine
 * coroutines (simulator.cc) and its report assembly (report.cc) —
 * wait-for graph, failure timeline, trace and counter file.
 */

#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.h"

namespace sara::sim {

/** Per-tensor sharded storage group (all VMUs holding one tensor). */
struct Simulator::MemGroup
{
    ir::TensorId tensor;
    std::vector<dfg::VuId> shards; ///< Ordered by shardIndex.
    int64_t interleave = 1;
    int numShards = 1;

    struct ShardState
    {
        std::vector<std::vector<double>> buffers; ///< [depth][size]
        int lastWriteBuf = 0;
        uint64_t readBusFree = 0;
        uint64_t writeBusFree = 0;
    };
    std::vector<ShardState> state;
};

/** Runtime state of one executing virtual unit. */
struct Simulator::Engine
{
    /** What structural resource the engine is parked on right now —
     *  the wait-for-graph edge source (blockReason is the human
     *  label, this is the machine-readable form). */
    enum class WaitKind : uint8_t {
        None,        ///< Running (or finished).
        StreamData,  ///< Consumer waiting for data/token on waitStream.
        StreamSpace, ///< Producer waiting for credit on waitStream.
        NetInject,   ///< Producer waiting for a NoC first-hop slot.
        DramWindow,  ///< AG at the outstanding-request limit.
        DramDrain,   ///< Store AG draining writes before a CMMC ack.
    };

    const dfg::VUnit *u = nullptr;
    int n = 0;   ///< Counter chain size.
    int vec = 1; ///< Innermost SIMD width.

    // Binding index tables per level 0..n (indices into u->inputs /
    // u->outputs). WhileCond bindings and the MemPort response output
    // are excluded from the generic tables.
    std::vector<std::vector<int>> inputsAt;
    std::vector<std::vector<int>> predsAt;
    std::vector<std::vector<int>> gatesAt;
    std::vector<std::vector<int>> outputsAt;
    std::vector<int> operandBindings; ///< All Operand-role inputs.
    std::vector<int> whileCondOf;     ///< Per level: binding idx or -1.

    // Runtime counter state.
    std::vector<int64_t> val, curMin, curStep, curMax;
    int activeLanes = 1;

    // Datapath lane values and reduction accumulators [lop * vec + lane].
    std::vector<double> lv;
    std::vector<double> redAcc;

    // Memory / AG state.
    MemGroup *group = nullptr; ///< MemPort: its tensor's storage group.
    int bufPtr = 0;
    int outstanding = 0;
    CondVar agCv;
    Simulator *sim = nullptr;

    // Canonical end-of-cycle arbitration (Simulator::resolveArbitration):
    // same-cycle DRAM accesses and PMU port-bus grants are staged here
    // and resolved in unit-id order, so simulated timing depends only
    // on the dependency graph — never on the event interleave.
    CondVar arbCv;
    uint64_t arbResultAt = 0;    ///< Bus grant cycle / max DRAM completeAt.
    uint64_t *busSlot = nullptr; ///< Staged &readBusFree / &writeBusFree.
    uint64_t busExtra = 0;       ///< Bank-conflict cycles riding the grant.
    std::vector<std::pair<uint64_t, uint32_t>> stagedBursts; ///< addr,bytes

    // Stats and diagnostics.
    UnitStats stats;
    uint64_t flops = 0;
    int arithLops = 0;
    static constexpr const char *kNotStarted = "not started";
    const char *blockReason = kNotStarted;
    WaitKind waitKind = WaitKind::None;
    /** StreamId index of the current or most recent stream wait; -1
     *  after a DRAM or arbitration wait (see Simulator::waitDetail). */
    int32_t waitStream = -1;
    bool finished = false;
    std::string error;

    Task task;

    void
    parkOn(WaitKind kind, int32_t stream, const char *why)
    {
        waitKind = kind;
        waitStream = stream;
        blockReason = why;
        sim->flight_.record(telemetry::FlightKind::Park, sim->sched_.now(),
                            u->id.v, stream);
    }

    void
    unpark()
    {
        waitKind = WaitKind::None;
        blockReason = "";
    }
};


} // namespace sara::sim

#endif // SARA_SIM_ENGINE_H

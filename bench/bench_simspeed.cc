/**
 * @file
 * Host-side performance of the simulator itself (google-benchmark):
 * the instruction interpretation rate. Not a paper artifact — this
 * guards the usability of the reproduction (the GC workloads execute
 * millions of simulated operations). The host cost of one exception
 * and of one facade access is measured end to end by uexc-bench
 * (exc-storm's core.env.fault_ns_*, gc-table4's facade path).
 */

#include <benchmark/benchmark.h>

#include "sim/assembler.h"
#include "sim/machine.h"

using namespace uexc;

namespace {

/**
 * Raw interpretation rate of a tight ALU/branch loop. Parameterised
 * over the interpreter implementation (0 = reference per-instruction
 * path, 1 = predecoded fast path); items/sec is simulated
 * instructions per second, taken from the retired-instruction
 * counter rather than a hardcoded estimate.
 */
void
BM_InterpreterLoop(benchmark::State &state)
{
    sim::MachineConfig config;
    config.cpu.fastInterpreter = state.range(0) != 0;
    sim::Machine machine(config);
    sim::Assembler a(0x80010000);
    a.label("loop");
    a.addiu(sim::T0, sim::T0, 1);
    a.addiu(sim::T1, sim::T1, -1);
    a.bne(sim::T1, sim::Zero, "loop");
    a.nop();
    a.hcall(0);
    machine.load(a.finalize());
    std::uint64_t start_insts = machine.cpu().stats().instructions;
    for (auto _ : state) {
        machine.cpu().clearHalt();
        machine.cpu().setReg(sim::T1, 10000);
        machine.cpu().setPc(0x80010000);
        machine.cpu().run(100000);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(machine.cpu().stats().instructions -
                                  start_insts));
}
BENCHMARK(BM_InterpreterLoop)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("fast");

} // namespace

BENCHMARK_MAIN();

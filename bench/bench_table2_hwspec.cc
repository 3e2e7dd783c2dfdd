/**
 * @file
 * Regenerates Table II: the system-under-test hardware specification
 * (here, the simulated machine substituted for the paper's testbed).
 */

#include "bench_common.h"

#include "analysis/report.h"
#include "hw/machine_spec.h"
#include "util/strings.h"

using namespace treadmill;

int
main()
{
    bench::banner("Table II -- hardware specification of the system"
                  " under test",
                  "Section III-C, Table II");

    const hw::MachineSpec &spec = hw::kMachine;
    analysis::TextTable table({"Component", "Specification"});
    table.addRow({"Processor", spec.processor});
    table.addRow({"Sockets x cores",
                  strprintf("%u x %u", spec.sockets,
                            spec.coresPerSocket)});
    table.addRow({"Frequency steps",
                  strprintf("%.1f / %.1f / %.1f GHz (min/base/turbo)",
                            spec.minFreqGhz, spec.baseFreqGhz,
                            spec.turboFreqGhz)});
    table.addRow({"DRAM",
                  strprintf("%u GB @ %u MHz", spec.dramGb,
                            spec.dramMhz)});
    table.addRow({"NUMA stalls",
                  strprintf("%.0f ns local / %.0f ns remote per access",
                            spec.localMemStallNs,
                            spec.remoteMemStallNs)});
    table.addRow({"Ethernet",
                  strprintf("%s (%.0f GbE)", spec.nicModel,
                            spec.nicGbps)});
    table.addRow({"NIC interrupt queues",
                  strprintf("%u (= 2^%u hash bits)", spec.nicQueues(),
                            spec.nicHashBits)});
    table.addRow({"Kernel", spec.kernel});
    table.addRow({"Server worker threads",
                  strprintf("%u (pinned to socket 0)",
                            spec.workerThreads)});
    std::printf("%s\n", table.render().c_str());
    std::printf("Substitution note: the paper tested a Xeon E5-2660 v2 /"
                " 144GB / 10GbE\nproduction server; this simulated"
                " machine models the same feature set\n(DVFS steps,"
                " Turbo w/ thermal budget, two NUMA nodes, 4-bit RSS"
                " hash).\n");
    return 0;
}

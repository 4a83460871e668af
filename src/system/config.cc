#include "system/config.h"

namespace piranha {

SystemConfig
configPn(unsigned cpus, unsigned nodes)
{
    SystemConfig c;
    c.name = strFormat("P%u", cpus);
    c.nodes = nodes;
    c.cpusPerChip = cpus;
    c.chip.cpus = cpus;
    c.chip.clockMhz = 500.0;
    c.chip.l1d.sizeBytes = 64 * 1024;
    c.chip.l1d.assoc = 2;
    c.chip.l1i.sizeBytes = 64 * 1024;
    c.chip.l1i.assoc = 2;
    c.chip.l2.bankBytes = 128 * 1024; // 1 MB / 8 banks
    c.chip.l2.assoc = 8;
    c.chip.icsPipeCycles = 2; // -> ~16 ns L2 hit, ~24 ns L2 fwd
    c.chip.l2.lookupCycles = 3;
    c.core.issueWidth = 1;
    c.core.windowSize = 0;
    return c;
}

SystemConfig
configP8(unsigned nodes)
{
    return configPn(8, nodes);
}

SystemConfig
configP1()
{
    return configPn(1);
}

SystemConfig
configOOO(unsigned nodes)
{
    SystemConfig c;
    c.name = "OOO";
    c.nodes = nodes;
    c.cpusPerChip = 1;
    c.chip.cpus = 1;
    c.chip.clockMhz = 1000.0;
    c.chip.l1d.sizeBytes = 64 * 1024;
    c.chip.l1d.assoc = 2;
    c.chip.l1i.sizeBytes = 64 * 1024;
    c.chip.l1i.assoc = 2;
    c.chip.l2.bankBytes = 192 * 1024; // 1.5 MB / 8 banks
    c.chip.l2.assoc = 6;
    c.chip.icsPipeCycles = 3; // -> ~12 ns L2 hit at 1 GHz
    c.chip.l2.lookupCycles = 4;
    c.core.issueWidth = 4;
    c.core.windowSize = 64;
    return c;
}

SystemConfig
configINO()
{
    SystemConfig c = configOOO();
    c.name = "INO";
    c.core.issueWidth = 1;
    c.core.windowSize = 0;
    return c;
}

SystemConfig
configP8F()
{
    SystemConfig c = configP8();
    c.name = "P8F";
    c.chip.clockMhz = 1250.0;
    // Full-custom SRAM: 1.5 MB 6-way L2 at 12 ns hit / 16 ns fwd.
    c.chip.l2.bankBytes = 192 * 1024;
    c.chip.l2.assoc = 6;
    c.chip.icsPipeCycles = 3;
    c.chip.l2.lookupCycles = 6;
    return c;
}

SystemConfig
configP8Pessimistic()
{
    SystemConfig c = configP8();
    c.name = "P8-pess";
    c.chip.clockMhz = 400.0;
    c.chip.l1d.sizeBytes = 32 * 1024;
    c.chip.l1d.assoc = 1;
    c.chip.l1i.sizeBytes = 32 * 1024;
    c.chip.l1i.assoc = 1;
    // 22 ns L2 hit / 32 ns fwd at 400 MHz.
    c.chip.icsPipeCycles = 2;
    c.chip.l2.lookupCycles = 4;
    return c;
}

} // namespace piranha

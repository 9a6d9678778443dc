#include "soc/power.hh"

#include "sim/logging.hh"

namespace dpu::soc {

PowerModel::PowerModel(const SocParams &params)
    : nMacros(params.nCores() / 8), macros(nMacros, PowerState::Active)
{
    // Published anchors: >37% leakage; 51 mW dynamic per dpCore.
    leakageW = 0.37 * params.designWatts;
    coresDynW = params.coreDynamicW * params.nCores();

    // Remaining budget split across the data-movement and uncore
    // blocks in proportions consistent with the die's emphasis on
    // the memory system (reconstruction; see DESIGN.md).
    double rest = params.designWatts - leakageW - coresDynW;
    sim_assert(rest > 0, "power budget under-provisioned");
    dmsW = 0.28 * rest;
    ddrCtlW = 0.34 * rest;
    armW = 0.16 * rest;
    nocW = 0.08 * rest;
    periphW = 0.14 * rest;
}

void
PowerModel::setMacroState(unsigned macro, PowerState state)
{
    sim_assert(macro < nMacros, "bad macro %u", macro);
    macros[macro] = state;
}

PowerState
PowerModel::macroState(unsigned macro) const
{
    sim_assert(macro < nMacros, "bad macro %u", macro);
    return macros[macro];
}

double
PowerModel::totalWatts() const
{
    // Leakage attributable to the core macros (roughly half the
    // die's leaky area) scales with gating; the rest is uncore.
    const double macro_leak = 0.5 * leakageW / nMacros;
    const double core_dyn = coresDynW / nMacros;

    double w = 0.5 * leakageW + dmsW + ddrCtlW + armW + nocW +
               periphW;
    for (PowerState s : macros) {
        switch (s) {
          case PowerState::Active:
            w += macro_leak + core_dyn;
            break;
          case PowerState::ClockGated:
            w += macro_leak;
            break;
          case PowerState::Retention:
            w += 0.3 * macro_leak;
            break;
          case PowerState::Off:
            break;
        }
    }
    return w;
}

std::vector<PowerComponent>
PowerModel::breakdown() const
{
    return {
        {"leakage", leakageW},
        {"dpCores (dynamic)", coresDynW},
        {"DMS", dmsW},
        {"DDR controller + PHY", ddrCtlW},
        {"ARM A9 + M0", armW},
        {"ATE / MBC / NoC", nocW},
        {"PCIe + peripherals", periphW},
    };
}

} // namespace dpu::soc

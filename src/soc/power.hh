/**
 * @file
 * The DPU power model (Section 2.5, Figure 5).
 *
 * The paper optimizes for PROVISIONED power — rack provisioning cost
 * — not dynamic power, and reports a 5.8 W total at 40 nm with over
 * 37% going to leakage (high-leakage cells were used to close
 * timing) and 51 mW dynamic per dpCore at 800 MHz. The full Figure 5
 * component split is reconstructed around those two published
 * anchors; fractions are documented in DESIGN.md as a substitution.
 *
 * The M0 power-management unit supports 4 dpCore power states and
 * per-macro power gating (Section 2.4); gating a macro removes its
 * cores' dynamic power and a share of leakage.
 */

#ifndef DPU_SOC_POWER_HH
#define DPU_SOC_POWER_HH

#include <string>
#include <vector>

#include "soc/soc_params.hh"

namespace dpu::soc {

/** dpCore power states managed by the M0 (Section 2.4). */
enum class PowerState
{
    Active,     ///< full speed
    ClockGated, ///< clocks stopped, state retained, leakage only
    Retention,  ///< SRAM retention voltage, reduced leakage
    Off,        ///< power gated
};

/** One line of the Figure 5 breakdown. */
struct PowerComponent
{
    std::string name;
    double watts;
};

/** Chip power model with per-macro gating. */
class PowerModel
{
  public:
    explicit PowerModel(const SocParams &params);

    /** Set the power state of one 8-core macro. */
    void setMacroState(unsigned macro, PowerState state);

    PowerState macroState(unsigned macro) const;

    /** Current total chip power given the macro states. */
    double totalWatts() const;

    /** Figure 5 style component breakdown at full activity. */
    std::vector<PowerComponent> breakdown() const;

  private:
    unsigned nMacros;
    std::vector<PowerState> macros;

    // Component fractions of designWatts (reconstruction; leakage
    // and per-core dynamic are the paper's numbers).
    double leakageW;
    double coresDynW;
    double dmsW;
    double ddrCtlW;
    double armW;
    double nocW;
    double periphW;
};

} // namespace dpu::soc

#endif // DPU_SOC_POWER_HH

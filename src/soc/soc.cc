#include "soc/soc.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace dpu::soc {

namespace {

/** Shared L2 per 8-core macro (Section 2.3: 256 KB). */
const mem::CacheParams l2Params{256 * 1024, 8, 6};

/** Bytes of the one SRAM region a @p p chip carves. */
std::size_t
sramBytes(const SocParams &p)
{
    return p.nCores() / core::coresPerMacro *
               sim::ZeroPages::pageRound(mem::Cache::sramBytes(l2Params)) +
           p.nCores() * core::DpCore::sramBytes();
}

} // namespace

Soc::Soc(const SocParams &params) : Soc(nullptr, params) {}

Soc::Soc(sim::EventQueue &shared, const SocParams &params)
    : Soc(&shared, params)
{
}

Soc::Soc(sim::EventQueue *shared, const SocParams &params)
    : p(params),
      ownedEq(shared ? nullptr : std::make_unique<sim::EventQueue>()),
      eq(shared ? *shared : *ownedEq), sram(sramBytes(params)),
      started(params.nCores(), false)
{
    // The DDR image and the DMEM apertures share one address map;
    // DpCore and the ATE send every address from mem::dmemBase up
    // to a DMEM, so DDR past it would name two memories.
    sim_assert(p.ddrBytes <= mem::dmemBase,
               "the chip's DDR runs into the DMEM apertures at byte "
               "%llu (SocParams.ddrBytes is %zu)",
               (unsigned long long)mem::dmemBase, p.ddrBytes);
    mm = std::make_unique<mem::MainMemory>(p.ddr, p.ddrBytes);

    const unsigned n = p.nCores();
    const unsigned n_macros = n / core::coresPerMacro;
    l2s.reserve(n_macros);
    for (unsigned m = 0; m < n_macros; ++m) {
        l2s.push_back(std::make_unique<mem::LazyCache>(
            "macro" + std::to_string(m) + ".l2", l2Params, *mm,
            sram.carve(mem::Cache::sramBytes(l2Params)),
            mm->statGroup()));
    }

    cores.reserve(n);
    corePtrs.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        cores.push_back(std::make_unique<core::DpCore>(
            i, eq, *l2s[i / core::coresPerMacro],
            sram.carve(core::DpCore::sramBytes())));
        corePtrs.push_back(cores.back().get());
    }

    dmsUnits.reserve(p.nComplexes);
    ateUnits.reserve(p.nComplexes);
    for (unsigned cx = 0; cx < p.nComplexes; ++cx) {
        const unsigned base = cx * coresPerComplex;
        dmsUnits.push_back(std::make_unique<dms::Dms>(
            eq, *mm, coresPerComplex, p.dms, base));
        for (unsigned i = 0; i < coresPerComplex; ++i)
            dmsUnits[cx]->attachCore(i, &cores[base + i]->dmem());

        std::vector<core::DpCore *> complex_cores(
            corePtrs.begin() + base,
            corePtrs.begin() + base + coresPerComplex);
        ateUnits.push_back(
            std::make_unique<ate::Ate>(eq, std::move(complex_cores)));
    }

    mbcUnit = std::make_unique<mbc::Mbc>(eq, corePtrs);
    a9Unit = std::make_unique<HostA9>(eq, *mbcUnit);

    // Tracing: honour DPU_TRACE=<file> on the first chip built, and
    // label every track this chip can emit on (cheap while
    // disarmed, so late programmatic arming still gets names).
    sim::Tracer &tr = sim::tracer();
    tr.armFromEnvOnce();
    for (unsigned i = 0; i < n; ++i) {
        const std::string cname = "core" + std::to_string(i);
        tr.nameTrack(sim::TraceCat::Core, i, cname);
        tr.nameTrack(sim::TraceCat::Ate, i, cname);
        tr.nameTrack(sim::TraceCat::Soc, i, cname);
        tr.nameTrack(sim::TraceCat::Dms, i,
                     "dmad" + std::to_string(i));
    }
    tr.nameTrack(sim::TraceCat::Ddr, 0, p.ddr.name);
    for (unsigned cx = 0; cx < p.nComplexes; ++cx) {
        const unsigned base = cx * coresPerComplex;
        const std::string prefix = "cx" + std::to_string(cx) + ".";
        const unsigned dmax0 = base / core::coresPerMacro;
        const unsigned n_dmax = coresPerComplex / core::coresPerMacro;
        for (unsigned m = 0; m < n_dmax; ++m) {
            const std::string dmax =
                prefix + "dmax" + std::to_string(m);
            tr.nameTrack(sim::TraceCat::Dms,
                         sim::dmstrack::loadEngine + dmax0 + m,
                         dmax + ".load");
            tr.nameTrack(sim::TraceCat::Dms,
                         sim::dmstrack::storeEngine + dmax0 + m,
                         dmax + ".store");
        }
        tr.nameTrack(sim::TraceCat::Dms,
                     sim::dmstrack::hashEngine + base,
                     prefix + "hash");
        tr.nameTrack(sim::TraceCat::Dms,
                     sim::dmstrack::partPipe + base,
                     prefix + "part");
    }
}

void
Soc::start(unsigned id, core::Kernel kernel)
{
    sim_assert(id < nCores(), "bad core id %u", id);
    started[id] = true;
    cores[id]->start(std::move(kernel));
}

void
Soc::startAll(core::Kernel kernel)
{
    for (unsigned i = 0; i < nCores(); ++i)
        start(i, kernel);
}

sim::Tick
Soc::run()
{
    eq.run();
    return eq.now();
}

sim::Tick
Soc::runFor(sim::Tick limit)
{
    eq.run(eq.now() + limit);
    return eq.now();
}

std::vector<unsigned>
Soc::unfinishedCores() const
{
    std::vector<unsigned> ids;
    for (unsigned i = 0; i < nCores(); ++i) {
        if (started[i] && !cores[i]->finished())
            ids.push_back(i);
    }
    return ids;
}

bool
Soc::allFinished() const
{
    for (unsigned i = 0; i < nCores(); ++i) {
        if (started[i] && !cores[i]->finished())
            return false;
    }
    return true;
}

void
Soc::dumpStats(std::ostream &os)
{
    mm->statGroup().dump(os);
    for (auto &c : cores)
        c->statGroup().dump(os);
    for (auto &d : dmsUnits)
        d->dmac().statGroup().dump(os);
    for (auto &a : ateUnits)
        a->statGroup().dump(os);
    mbcUnit->statGroup().dump(os);
}

} // namespace dpu::soc

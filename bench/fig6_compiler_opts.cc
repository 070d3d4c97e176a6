/**
 * @file
 * Reproduces Figure 6: HAAC speedup over the CPU for the three
 * compiler configurations — Baseline schedule, full reorder + rename
 * (RO+RN), and RO+RN plus eliminating spent wires (RO+RN+ESW) — on a
 * 16-GE, 2 MB SWW, DDR4 Evaluator.
 */
#include <cstdio>
#include <iostream>

#include "harness.h"

using namespace haac;
using namespace haac::bench;

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv, "Figure 6: compiler speedups");
    const HaacConfig cfg = defaultConfig();
    RunLog log(opts, "fig6_compiler_opts");

    std::printf("== Figure 6: speedup over CPU (16 GEs, 2MB SWW, DDR4, "
                "Evaluator; %s scale) ==\n\n",
                opts.paperScale ? "paper" : "default");

    Report table({"Benchmark", "Baseline", "RO+RN", "RO+RN+ESW",
                  "RO/Base", "ESW/RO", "(paper-CPU model x)"},
                 opts.format);
    std::vector<double> base_x, ro_x, esw_x, ro_gain, esw_gain;

    for (const char *name : {"BubbSt", "DotProd", "Merse", "Triangle",
                             "Hamm", "MatMult", "ReLU", "GradDesc"}) {
        if (!opts.only.empty() && opts.only != name)
            continue;
        Workload wl = vipWorkload(name, opts.paperScale);
        const double cpu = measuredCpuSeconds(wl);
        const double cpu_paper =
            paperCpuSeconds(wl.netlist.numGates());

        CompileOptions baseline;
        baseline.reorder = ReorderKind::Baseline;
        baseline.esw = false;
        CompileOptions ro;
        ro.reorder = ReorderKind::Full;
        ro.esw = false;
        CompileOptions esw;
        esw.reorder = ReorderKind::Full;
        esw.esw = true;

        Session session(wl);
        session.withConfig(cfg).withOutputs(false);
        RunReport r_base = session.withCompileOptions(baseline)
                               .withLabel("baseline")
                               .runHaacSim();
        RunReport r_ro =
            session.withCompileOptions(ro).withLabel("ro+rn").runHaacSim();
        RunReport r_esw = session.withCompileOptions(esw)
                              .withLabel("ro+rn+esw")
                              .runHaacSim();
        const double t_base = r_base.sim.seconds();
        const double t_ro = r_ro.sim.seconds();
        const double t_esw = r_esw.sim.seconds();
        log.add(r_base);
        log.add(r_ro);
        log.add(r_esw);

        base_x.push_back(cpu / t_base);
        ro_x.push_back(cpu / t_ro);
        esw_x.push_back(cpu / t_esw);
        ro_gain.push_back(t_base / t_ro);
        esw_gain.push_back(t_ro / t_esw);

        table.addRow({name, fmt(cpu / t_base, 1), fmt(cpu / t_ro, 1),
                      fmt(cpu / t_esw, 1), fmt(t_base / t_ro, 2),
                      fmt(t_ro / t_esw, 2),
                      fmt(cpu_paper / t_esw, 1)});
    }
    table.print(std::cout);

    std::printf("\nGeomean speedups: baseline %.1fx, RO+RN %.1fx, "
                "RO+RN+ESW %.1fx\n",
                geomean(base_x), geomean(ro_x), geomean(esw_x));
    std::printf("Geomean gain from RO+RN: %.2fx (paper avg: 3.1x, max "
                "6.8x on Merse)\n",
                geomean(ro_gain));
    std::printf("Geomean gain from ESW:   %.2fx (paper avg: 2.1x, max "
                "3.3x on Hamm)\n",
                geomean(esw_gain));
    std::printf("Paper anchors: baseline avg 82.6x over CPU; full "
                "RO+RN+ESW geomean 589x with DDR4.\n");
    std::printf("CPU baseline here is host-measured software GC "
                "(re-keyed, AES-NI when present); the last column "
                "re-bases on the paper's AES-NI EMP model.\n");
    return 0;
}

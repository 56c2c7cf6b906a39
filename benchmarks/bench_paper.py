"""The paper's evaluation: Table 1 and Figures 2–7 from one run of the
``paper`` grid (Table 1 at 10 and 30 flows plus Fig. 6's re-run).  Every
table and figure is a view over the grid's trials; Figs. 2–5 and 7 reuse
Table 1's trials.  Writes ``table1_{10,30}flows.txt`` and
``fig2.txt`` … ``fig7.txt`` under ``benchmarks/results/``.

Table 1: the six metrics averaged over pause times and node counts.
Paper's reading (means over all pause times, both 50- and 100-node
scenarios): LDR has the highest delivery ratio; AODV is next and close to
OLSR; LDR and AODV network loads are statistically identical at 10 flows
and all four protocols are equivalent at 30 flows; LDR transmits about a
third fewer broadcast RREQs than AODV; OLSR and LDR have the lowest (and
statistically identical) latencies.

Figure 2: delivery ratio vs pause time — 50 nodes, 10 flows (40 pps).
Paper's reading: LDR holds a very high delivery ratio at every pause time
(its minimum over all low-load scenarios is 98.5%); AODV is next;
DSR trails under mobility (low pause times).

Figure 3: delivery ratio vs pause time — 50 nodes, 30 flows (120 pps).
Paper's reading: at high load LDR, AODV and OLSR bunch together (AODV
sometimes edges ahead at high mobility); DSR degrades with mobility.

Figure 4: delivery ratio vs pause time — 100 nodes, 10 flows.
Paper's reading: LDR's minimum delivery ratio in this scenario is 98.5%
(at the 200 s pause time); the larger terrain stresses route length.

Figure 5: delivery ratio vs pause time — 100 nodes, 30 flows.
Paper's reading: the hardest scenario; LDR, AODV and OLSR are
statistically close on average, DSR clearly below under mobility.

Figure 6: the QualNet cross-check of Figure 3 (DSR draft 7).
The paper re-ran the 50-node/30-flow scenario in QualNet 3.5.2 (DSR
draft 7 instead of GloMoSim's draft 3) and saw DSR slightly better but
with the same downward trend under mobility.  We model the stack change as
the ``dsr7`` variant (tighter cache lifetimes, one extra salvage) and a
shifted seed range standing in for the different simulator's randomness.

Figure 7: mean destination sequence number — LDR vs AODV, low/high load.
Paper's reading (900 s runs): LDR's destinations increment their numbers
at most 0.8 times on average at 10 flows and 3.7 at 30 flows, because only
a destination may increment its own number and only for path resets.
AODV's reach ~104 and ~108 — any node may increment another's number on a
route break.  The two protocols should differ by about two orders of
magnitude at full scale; at bench scale the gap is smaller but must be
decisive.
"""

from benchmarks.conftest import bench_campaign, save_result
from repro.experiments.campaigns import run_grid
from repro.experiments.figures import FIGURES
from repro.experiments.grids import GRIDS, PAPER_FLOWS
from repro.experiments.tables import format_table1, table1_view


def test_paper_grid(benchmark):
    campaign = bench_campaign()
    labels, configs = GRIDS["paper"].build(campaign)
    labels, result, _ = benchmark.pedantic(
        run_grid, args=(campaign, "paper", labels, configs),
        rounds=1, iterations=1,
    )
    result.rows()  # raises CampaignError for a trial without a row
    tables = {num_flows: table1_view(labels, result.trials, num_flows)[0]
              for num_flows in PAPER_FLOWS}
    figures = {name: figure.view(labels, result.trials)
               for name, figure in FIGURES.items()}
    for num_flows, results in tables.items():
        save_result("table1_%dflows" % num_flows,
                    format_table1(results, num_flows))
    for name, series in figures.items():
        save_result(name, FIGURES[name].render(series))

    # Table 1.  Sanity of shape: every protocol delivered something, and
    # the on-demand protocols beat the (slow-converging) OLSR at this
    # scale.
    for results in tables.values():
        for protocol, metrics in results.items():
            assert 0.0 < metrics["delivery_ratio"].mean <= 1.0, protocol

    series = figures["fig2"]
    assert series["ldr"][0][1] > 0.85  # LDR delivers under constant motion
    series = figures["fig3"]
    assert series["ldr"][0][1] > 0.8
    series = figures["fig4"]
    assert series["ldr"][0][1] > 0.7
    series = figures["fig5"]
    assert series["ldr"][0][1] > 0.6
    series = figures["fig6"]
    assert "dsr7" in series
    series = figures["fig7"]
    # The paper's headline shape: AODV >> LDR at every load level.
    for load in ("low", "high"):
        aodv = max(point[1] for point in series["aodv-" + load])
        ldr = max(point[1] for point in series["ldr-" + load])
        assert aodv > 2 * ldr, (load, aodv, ldr)

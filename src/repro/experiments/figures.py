"""Figures 2–7: the series each plot in the paper draws.

:data:`FIGURES` registers each figure's title, y label, metric and slice
of a pause grid.  A figure is a view over the grid's labelled trials —
series -> ``(pause, mean, ci, completed, planned)`` points, printed as
aligned text: the textual equivalent of the paper's plots, with the same
axes.  Figs. 2–5 and 7 slice Table 1's trials (same seeds, so the same
trial keys); Fig. 6 is its own ``"fig6"`` block.
"""

from collections import namedtuple

from repro.experiments.campaigns import (
    COMPARED_PROTOCOLS,
    fold,
    pause_grid,
    run_grid,
)
from repro.experiments.runner import aggregate_rows


class Figure(namedtuple("Figure", "name title ylabel metric nodes flows "
                                  "protocols block seed",
                        defaults=(COMPARED_PROTOCOLS, "table1", 1))):
    """``metric`` vs pause time over the ``block`` trials at ``nodes``
    whose flow count is a key of ``flows`` and whose protocol is in
    ``protocols``.  A series is named after its protocol, suffixed
    ``-<flows[num_flows]>`` when that is set (Fig. 7's low/high load)."""

    def cell(self, label):
        """``(series, pause)`` of a grid label; None outside the figure."""
        block, nodes, num_flows, pause, protocol = label
        if (block != self.block or nodes != self.nodes
                or num_flows not in self.flows
                or protocol not in self.protocols):
            return None
        suffix = self.flows[num_flows]
        return (protocol if suffix is None else protocol + "-" + suffix,
                pause)

    def grid(self, campaign):
        """The figure's slice as a grid of its own: ``(labels, configs)``."""
        return pause_grid(campaign, self.protocols, (self.nodes,),
                          tuple(self.flows), seed=self.seed,
                          block=self.block)

    def view(self, labels, trials):
        """``{series: [(pause, mean, ci, completed, planned), ...]}``;
        ``mean`` and ``ci`` are None at a point with no completed trial."""
        series = {}
        for (name, pause), cell in fold(labels, trials, self.cell).items():
            agg = aggregate_rows([trial.row for trial in cell if trial.ok],
                                 (self.metric,))[self.metric]
            done = len(agg.values)
            series.setdefault(name, []).append((
                pause, agg.mean if done else None, agg.ci if done else None,
                done, len(cell)))
        return series

    def run(self, campaign):
        """Run just the figure's slice; returns its :meth:`view`."""
        labels, configs = self.grid(campaign)
        labels, result, _ = run_grid(campaign, self.name, labels, configs)
        result.rows()  # CampaignError unless every trial has a row
        return self.view(labels, result.trials)

    def render(self, series):
        """The series as aligned text.  A point with no completed trial
        prints ``--``; one short of its planned trials says so."""
        lines = [self.title, "{:>12} | {}".format("pause time (s)",
                                                  self.ylabel)]
        for name in sorted(series):
            lines.append("  series: " + name)
            for x, mean, ci, done, planned in series[name]:
                value = "--" if not done else "{:.4f} ± {:.4f}".format(mean, ci)
                if 0 < done < planned:
                    value += "  ({}/{} trials)".format(done, planned)
                lines.append("{:>12} | {}".format(x, value))
        return "\n".join(lines)


_DELIVERY = ("delivery ratio", "delivery_ratio")

#: Every figure of the paper's evaluation, in paper order.
FIGURES = {figure.name: figure for figure in (
    Figure("fig2", "Figure 2: delivery ratio vs pause time "
           "(50 nodes, 10 flows)", *_DELIVERY, 50, {10: None}),
    Figure("fig3", "Figure 3: delivery ratio vs pause time "
           "(50 nodes, 30 flows)", *_DELIVERY, 50, {30: None}),
    Figure("fig4", "Figure 4: delivery ratio vs pause time "
           "(100 nodes, 10 flows)", *_DELIVERY, 100, {10: None}),
    Figure("fig5", "Figure 5: delivery ratio vs pause time "
           "(100 nodes, 30 flows)", *_DELIVERY, 100, {30: None}),
    # The paper re-ran Fig. 3 in QualNet 3.5.2 with DSR draft 7: "slightly
    # better, but still the same downward trend".  The stack change is the
    # ``dsr7`` variant, and seeds come from a shifted range: a different
    # simulator means different randomness, not different workloads.
    Figure("fig6", "Figure 6: QualNet cross-check (50 nodes, 30 flows, "
           "DSR d7)", *_DELIVERY, 50, {30: None},
           ("ldr", "aodv", "dsr7", "olsr"), "fig6", 101),
    # Low load = 10 flows, high load = 30 flows.
    Figure("fig7", "Figure 7: mean destination sequence number "
           "(LDR vs AODV)", "mean destination seqno",
           "mean_destination_seqno", 50, {10: "low", 30: "high"},
           ("ldr", "aodv")),
)}

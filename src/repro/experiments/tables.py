"""Table 1: the six metrics averaged over all pause times and both node
counts for a given flow load, with 95% confidence intervals — a view
over the ``"table1"`` trials of a pause grid, complete or partial."""

from repro.experiments.campaigns import (
    COMPARED_PROTOCOLS,
    Campaign,
    fold,
    pause_grid,
    run_grid,
)
from repro.experiments.runner import aggregate_rows

TABLE1_METRICS = (
    ("delivery_ratio", "Delivery"),
    ("mean_latency", "Latency (s)"),
    ("network_load", "Net Load"),
    ("rreq_load", "RREQ Load"),
    ("rrep_init_per_rreq", "RREP Init"),
    ("rrep_recv_per_rreq", "RREP Recv"),
)


def table1(num_flows, campaign=None, protocols=COMPARED_PROTOCOLS):
    """Regenerate one flow-count block of Table 1.

    Returns ``{protocol: {metric: Aggregate}}`` where each Aggregate pools
    every (node count, pause time, trial) sample — exactly the paper's
    "averaging over all pause times and both 50-node and 100-node
    scenarios for a given number of flows".  Raises
    :class:`~repro.exec.engine.CampaignError` for a trial without a row.
    """
    campaign = campaign or Campaign()
    labels, configs = pause_grid(
        campaign, protocols,
        (campaign.num_nodes_small, campaign.num_nodes_large), (num_flows,))
    labels, result, _ = run_grid(campaign, "table1", labels, configs)
    result.rows()  # CampaignError unless every trial has a row
    return table1_view(labels, result.trials, num_flows)[0]


def table1_view(labels, trials, num_flows):
    """The Table-1 block at ``num_flows`` over a grid's labelled trials:
    ``({protocol: {metric: Aggregate}}, {protocol: planned trials})``."""
    cells = fold(labels, trials, lambda label: (
        label[4] if label[0] == "table1" and label[2] == num_flows else None))
    keys = [key for key, _ in TABLE1_METRICS]
    results = {protocol: aggregate_rows([t.row for t in cell if t.ok], keys)
               for protocol, cell in cells.items()}
    return results, {protocol: len(cell) for protocol, cell in cells.items()}


def format_table1(results, num_flows, planned=None):
    """Render a Table-1 block the way the paper prints it.

    A metric with no completed trial prints ``--``; when ``planned``
    shows a row short of its trials, a ``cov`` column says how short.
    """
    done = {protocol: len(metrics[TABLE1_METRICS[0][0]].values)
            for protocol, metrics in results.items()}
    degraded = planned is not None and any(
        done[protocol] < planned[protocol] for protocol in results)
    lines = []
    lines.append("Table 1 — {} flows (mean ± 95% CI)".format(num_flows))
    header = "{:<10}".format("Protocol") + "".join(
        "{:>18}".format(label) for _, label in TABLE1_METRICS
    )
    if degraded:
        header += "{:>8}".format("cov")
    lines.append(header)
    lines.append("-" * len(header))
    for protocol, metrics in results.items():
        row = "{:<10}".format(protocol.upper())
        for key, _ in TABLE1_METRICS:
            agg = metrics[key]
            row += "{:>18}".format("{:.3f} ± {:.3f}".format(agg.mean, agg.ci)
                                   if agg.values else "--")
        if degraded:
            row += "{:>8}".format("%d/%d" % (done[protocol],
                                             planned[protocol]))
        lines.append(row)
    return "\n".join(lines)

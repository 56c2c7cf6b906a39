"""The registry of named grids: ``repro campaign NAME`` runs, journals
and shards any grid in :data:`GRIDS`, and ``campaign merge``/``resume``/
``watch`` render a journal by the grid name in its header."""

from collections import namedtuple

from repro.experiments.campaigns import (
    COMPARED_PROTOCOLS,
    aggregate_churn,
    churn_grid,
    format_churn,
    pause_grid,
)
from repro.experiments.figures import FIGURES
from repro.experiments.tables import format_table1, table1_view

#: ``build(campaign) -> (labels, configs)``; ``render(labels, trials) ->
#: text``, complete or partial; ``coordinates`` name a label's fields.
Grid = namedtuple("Grid", "build render coordinates")

PAPER_FLOWS = (10, 30)  # Table 1's two blocks


def paper_grid(campaign):
    """Table 1 at 10 and 30 flows plus Fig. 6's DSR-draft-7 re-run; Figs.
    2–5 and 7 are slices of Table 1's trials."""
    labels, configs = pause_grid(
        campaign, COMPARED_PROTOCOLS,
        (campaign.num_nodes_small, campaign.num_nodes_large), PAPER_FLOWS)
    fig6_labels, fig6_configs = FIGURES["fig6"].grid(campaign)
    return labels + fig6_labels, configs + fig6_configs


def render_paper(labels, trials):
    """Both Table-1 blocks, then Figs. 2–7, joined by blank lines."""
    blocks = []
    for num_flows in PAPER_FLOWS:
        results, planned = table1_view(labels, trials, num_flows)
        blocks.append(format_table1(results, num_flows, planned))
    blocks += [figure.render(figure.view(labels, trials))
               for figure in FIGURES.values()]
    return "\n\n".join(blocks)


def render_churn(labels, trials):
    return format_churn(aggregate_churn(labels, trials))


GRIDS = {
    "churn": Grid(churn_grid, render_churn, ("fault", "protocol")),
    "paper": Grid(paper_grid, render_paper,
                  ("block", "nodes", "flows", "pause", "protocol")),
}

"""One model's exact per-group costs from the library, in the oracle's
Report: group_metrics.model_costs on a K = 1 stack, read through its
exact means."""

from fairsample.group_metrics import model_costs
from oracles import Report


def model_reports(y, labels, scores, a, metrics):
    """[Report] per metric of one model's labels and scores on (y, a)."""
    costs = model_costs(y, [labels], None if scores is None else [scores],
                        a, metrics)
    return [Report(m, *costs[m].means(), costs[m].mean_disc())
            for m in metrics]

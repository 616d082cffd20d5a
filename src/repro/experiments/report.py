"""Render experiment results as the EXPERIMENTS.md report.

The report records, for every figure, what the paper shows and what this
reproduction measured, including whether the expected qualitative shape
holds (the claims listed in DESIGN.md's experiment index).
"""

from __future__ import annotations

from repro.config import ExperimentConfig
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure4_significance,
    figure5,
)
from repro.experiments.training_runs import EvaluationMatrix
from repro.util.tables import render_table

__all__ = ["PRIMARY_CLAIMS", "shape_checks", "render_report"]

#: The paper's load-bearing claims, robust at any reasonable training
#: scale.  The remaining (secondary) checks concern the fine ordering
#: *between* the safety schemes, which EXPERIMENTS.md documents as
#: training-scale-sensitive.
PRIMARY_CLAIMS = frozenset(
    {
        "fig1_pensieve_beats_bb_in_distribution",
        "fig1_safety_above_bb_on_average",
        "fig3_pensieve_usually_below_bb_ood",
        "fig3_pensieve_sometimes_below_random",
        "fig4_safety_beats_pensieve_min",
        "fig4_safety_beats_pensieve_mean",
        "fig4_safety_beats_pensieve_median",
    }
)


def shape_checks(
    config: ExperimentConfig, matrix: EvaluationMatrix
) -> dict[str, bool]:
    """Evaluate the paper's qualitative claims on this matrix.

    Returns a mapping from claim name to whether it held.
    """
    fig1 = figure1(config, matrix=matrix)
    fig3 = figure3(config, matrix=matrix)
    fig4 = figure4(config, matrix=matrix)
    checks: dict[str, bool] = {}
    pensieve = fig1["series"]["Pensieve"]
    bb = fig1["series"]["BB"]
    checks["fig1_pensieve_beats_bb_in_distribution"] = all(
        p > b for p, b in zip(pensieve, bb)
    )
    safety_mean = [
        sum(fig1["series"][s][i] for s in ("ND", "A-ensemble", "V-ensemble")) / 3.0
        for i in range(len(pensieve))
    ]
    checks["fig1_safety_above_bb_on_average"] = (
        sum(safety_mean) / len(safety_mean) > sum(bb) / len(bb)
    )
    ood_scores = [
        fig3["scores"][train][test]
        for train in fig3["datasets"]
        for test in fig3["datasets"]
        if train != test
    ]
    below_bb = sum(1 for score in ood_scores if score < 1.0)
    checks["fig3_pensieve_usually_below_bb_ood"] = below_bb > len(ood_scores) / 2
    checks["fig3_pensieve_sometimes_below_random"] = any(
        score < 0.0 for score in ood_scores
    )
    summary = fig4["summary"]
    for stat in ("min", "mean", "median"):
        checks[f"fig4_safety_beats_pensieve_{stat}"] = all(
            summary[s][stat] > summary["Pensieve"][stat]
            for s in ("ND", "A-ensemble", "V-ensemble")
        )
    checks["fig4_nd_min_best_of_ensembles"] = (
        summary["ND"]["min"] >= summary["A-ensemble"]["min"]
    )
    checks["fig4_a_ensemble_weakest_min"] = (
        summary["A-ensemble"]["min"]
        <= min(summary["ND"]["min"], summary["V-ensemble"]["min"])
    )
    return checks


def render_report(
    config: ExperimentConfig,
    matrix: EvaluationMatrix,
    runtimes: dict | None = None,
) -> str:
    """EXPERIMENTS.md body for one configuration's results."""
    parts: list[str] = []
    parts.append(f"## Results at configuration `{config.name}`\n")
    fig1 = figure1(config, matrix=matrix)
    rows = [
        [scheme] + [round(v, 1) for v in values]
        for scheme, values in fig1["series"].items()
    ]
    parts.append("### Figure 1 — in-distribution QoE (train = test)\n")
    parts.append(
        "```\n" + render_table(["scheme"] + fig1["datasets"], rows) + "\n```\n"
    )
    fig2 = figure2(config, matrix=matrix)
    for train, panel in fig2.items():
        parts.append(f"### Figure 2 — trained on {train}, raw QoE\n")
        rows = [
            [scheme] + [round(v, 1) for v in panel[scheme]]
            for scheme in ("Pensieve", "BB", "Random")
        ]
        parts.append(
            "```\n" + render_table(["scheme"] + panel["datasets"], rows) + "\n```\n"
        )
    fig3 = figure3(config, matrix=matrix)
    parts.append("### Figure 3 — normalized Pensieve score (Random=0, BB=1)\n")
    rows = [
        [train] + [round(fig3["scores"][train][test], 2) for test in fig3["datasets"]]
        for train in fig3["datasets"]
    ]
    parts.append(
        "```\n" + render_table(["train \\ test"] + fig3["datasets"], rows) + "\n```\n"
    )
    fig4 = figure4(config, matrix=matrix)
    parts.append(
        f"### Figure 4 — normalized OOD summary over {fig4['ood_pairs']} pairs\n"
    )
    rows = [
        [scheme] + [round(stats[key], 2) for key in ("max", "min", "mean", "median")]
        for scheme, stats in fig4["summary"].items()
    ]
    parts.append(
        "```\n"
        + render_table(["scheme", "max", "min", "mean", "median"], rows)
        + "\n```\n"
    )
    significance = figure4_significance(config, matrix=matrix)
    parts.append("### Figure 4 supplement — paired tests vs vanilla Pensieve\n")
    rows = [
        [
            scheme,
            round(stats["mean_difference"], 2),
            f"{stats['wins']}/{stats['losses']}/{stats['ties']}",
            f"{stats['wilcoxon_p']:.4f}",
            f"{stats['sign_test_p']:.4f}",
        ]
        for scheme, stats in significance["comparisons"].items()
    ]
    parts.append(
        "```\n"
        + render_table(
            ["scheme", "mean diff", "W/L/T", "wilcoxon p", "sign p"], rows
        )
        + "\n```\n"
    )
    fig5 = figure5(config, matrix=matrix)
    parts.append("### Figure 5 — CDF of normalized OOD performance\n")
    rows = []
    for scheme, cdf in fig5["cdfs"].items():
        values = cdf["values"]
        quartiles = [
            values[int(q * (len(values) - 1))] for q in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        rows.append([scheme] + [round(v, 2) for v in quartiles])
    parts.append(
        "```\n"
        + render_table(["scheme", "p0", "p25", "p50", "p75", "p100"], rows)
        + "\n```\n"
    )
    checks = shape_checks(config, matrix)
    parts.append("### Qualitative shape checks\n")
    rows = [
        [
            name,
            "primary" if name in PRIMARY_CLAIMS else "secondary",
            "PASS" if ok else "FAIL",
        ]
        for name, ok in checks.items()
    ]
    parts.append(
        "```\n" + render_table(["claim", "tier", "status"], rows) + "\n```\n"
    )
    if runtimes is not None:
        parts.append("### Running times (Section 3.1 remark)\n")
        offline = runtimes["offline_seconds"]
        online = runtimes["online_ms_per_decision"]
        rows = [
            ["OC-SVM fit (s)", round(offline["ocsvm_fit"], 3)],
            ["one RL agent (s)", round(offline["agent_each"], 1)],
            ["one value function (s)", round(offline["value_each"], 1)],
            ["U_S decision (ms)", round(online["U_S"], 3)],
            ["U_pi decision (ms)", round(online["U_pi"], 3)],
            ["U_V decision (ms)", round(online["U_V"], 3)],
        ]
        parts.append("```\n" + render_table(["quantity", "measured"], rows) + "\n```\n")
    return "\n".join(parts)

"""Fig. 11: mixed-alphabet networks — accuracy vs energy.

For MNIST (2-layer MLP), SVHN (6-layer) and TICH (5-layer) the paper
compares three deployments:

* conventional multiplier neurons,
* 1-alphabet {1} MAN everywhere,
* the §VI.E mixed plan — {1} in the early layers, {1,3} / {1,3,5,7} in the
  concluding layer(s).

The pipeline expresses the three deployments as the design tokens
``conventional`` / ``asm1`` / ``mixed`` and handles the retraining
(projected SGD) and both measurements; this module relabels the rows the
way Fig. 11 does and normalises energy to the conventional deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.report import format_table
from repro.pipeline import Pipeline, PipelineConfig

__all__ = ["Figure11Row", "FIGURE11_APPS", "run_figure11_app",
           "run_figure11", "format_figure11_table"]

#: The applications Fig. 11 plots.
FIGURE11_APPS = ("mnist_mlp", "svhn", "tich")

#: Fig. 11 deployments as pipeline design tokens, with the paper's labels.
_FIGURE11_DESIGNS = (("conventional", "conventional"),
                     ("asm1", "all {1}"),
                     ("mixed", "mixed"))


@dataclass(frozen=True)
class Figure11Row:
    """One (application, deployment) point of Fig. 11."""

    app: str
    deployment: str            # "conventional" / "all {1}" / "mixed"
    accuracy: float
    energy_nj: float
    normalized_energy: float


def run_figure11_app(app: str, full: bool = False,
                     seed: int = 0) -> list[Figure11Row]:
    """The three Fig. 11 deployments for one application."""
    config = PipelineConfig(
        app=app, designs=tuple(d for d, _ in _FIGURE11_DESIGNS),
        stages=("train", "quantize", "constrain", "evaluate", "energy"),
        budget="full" if full else "quick", seed=seed)
    report = Pipeline(config).run()
    rows = []
    for design, deployment in _FIGURE11_DESIGNS:
        accuracy = report.evaluate.row_for(design)
        energy = report.energy.row_for(design)
        rows.append(Figure11Row(
            app=app, deployment=deployment,
            accuracy=accuracy.accuracy,
            energy_nj=energy.energy_nj,
            normalized_energy=energy.normalized,
        ))
    return rows


def run_figure11(full: bool = False, seed: int = 0,
                 apps: tuple[str, ...] = FIGURE11_APPS,
                 ) -> dict[str, list[Figure11Row]]:
    return {app: run_figure11_app(app, full=full, seed=seed)
            for app in apps}


def format_figure11_table(rows: dict[str, list[Figure11Row]],
                          title: str) -> str:
    table_rows = []
    for app, entries in rows.items():
        for row in entries:
            table_rows.append([
                app, row.deployment,
                f"{row.accuracy * 100:.2f}",
                f"{row.normalized_energy:.3f}",
            ])
    return format_table(
        ["Application", "Deployment", "Accuracy (%)",
         "normalized energy"],
        table_rows, title=title)

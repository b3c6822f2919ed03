"""E11 — dynamic replication under popularity drift (extension).

The paper says its replication algorithms "can be applied for dynamic
replication during run-time"; this experiment runs that loop on the
serving control plane.  Over a sequence of daily peak periods at a flat
arrival rate whose true popularity drifts (new-release churn), it
compares three configurations of one plane:

* **static** — the paper's plan-once strategy (``replan="never"``),
* **tracked** — re-plan every epoch from the EWMA-estimated counts of the
  epochs served so far, under a migration budget (``replan="always"``),
* **oracle** — re-solve each epoch on its true popularity (the upper
  bound, :func:`repro.serving.chain_batch_epochs` with ``resolve=True``),

reporting per-epoch rejection and the cumulative migration traffic the
adaptation costs.  All three face the identical per-epoch traces.
"""

from __future__ import annotations

import numpy as np

from ..analysis.tables import format_series, format_table
from ..dynamic import ReleaseChurnDrift
from ..serving import ServingConfig, ServingControlPlane, chain_batch_epochs
from .config import PaperSetup

__all__ = ["run_dynamic_study", "format_dynamic_study"]


def run_dynamic_study(
    setup: PaperSetup | None = None,
    *,
    degree: float = 1.2,
    epochs: int = 10,
    releases_per_epoch: int | None = None,
    arrival_fraction: float = 0.85,
    move_budget: int | None = None,
) -> dict:
    """Run the epoch study at the paper's scale.

    ``releases_per_epoch`` defaults to 5% of the catalogue; the arrival
    rate is a fraction of saturation so that rejections measure plan
    staleness rather than raw capacity.
    """
    setup = setup or PaperSetup()
    if releases_per_epoch is None:
        releases_per_epoch = max(setup.num_videos // 20, 1)
    rate = arrival_fraction * setup.saturation_rate_per_min
    config = ServingConfig(
        theta=setup.theta_high,
        replication_degree=degree,
        setup=setup,
        base_rate_per_min=rate,
        peak_rate_per_min=rate,
        drift=ReleaseChurnDrift(releases_per_epoch),
        replan="always",
        tracker_alpha=0.5,
        move_budget=move_budget,
        seed=setup.seed,
        epochs=epochs,
    )
    static = ServingControlPlane(config.frozen()).run()
    tracked = ServingControlPlane(config).run()
    oracle = chain_batch_epochs(config, resolve=True)
    return {
        "epochs": list(range(epochs)),
        "curves": {
            "static": [s.rejection_rate for s in static.snapshots],
            "tracked": [s.rejection_rate for s in tracked.snapshots],
            "oracle": [r.rejection_rate for r in oracle],
        },
        "replicas_copied": {
            "static": static.total_replicas_copied,
            "tracked": tracked.total_replicas_copied,
            "oracle": 0,
        },
        "releases_per_epoch": releases_per_epoch,
        "replica_storage_gb": setup.replica_storage_gb,
    }


def format_dynamic_study(results: dict) -> str:
    """Render the per-epoch curves plus the migration bill."""
    series = format_series(
        "epoch",
        results["epochs"],
        results["curves"],
        title=(
            "E11 dynamic replication: rejection per epoch under "
            f"{results['releases_per_epoch']} new releases/epoch"
        ),
    )
    gb = results["replica_storage_gb"]
    bill = format_table(
        ["strategy", "mean rejection", "replicas copied", "GB migrated"],
        [
            [
                s,
                float(np.mean(results["curves"][s][1:]))
                if len(results["curves"][s]) > 1
                else float(results["curves"][s][0]),
                results["replicas_copied"][s],
                results["replicas_copied"][s] * gb,
            ]
            for s in results["curves"]
        ],
        floatfmt=".4f",
        title="Adaptation cost (epochs 1+; oracle/static migrate out of band)",
    )
    return series + "\n\n" + bill


#: Epochs of the ``--quick`` table; ``benchmarks/bench_extensions.py``
#: times the same run and writes the same ``results/dynamic.txt``.
QUICK_EPOCHS = 6


def main(quick: bool = False, chart: bool = False) -> str:
    """CLI entry point; returns the formatted report."""
    setup = PaperSetup().quick(num_runs=3) if quick else PaperSetup()
    epochs = QUICK_EPOCHS if quick else 12
    results = run_dynamic_study(setup, epochs=epochs)
    report = format_dynamic_study(results)
    if chart:
        from ..analysis.plots import ascii_chart

        report += "\n\n" + ascii_chart(
            results["epochs"], results["curves"],
            title="E11 rejection per epoch", x_label="epoch",
        )
    return report

"""The headline claims of Sec. 5, read off the committed quick tables.

CI regenerates every ``results/*.txt`` with ``python -m repro.experiments
<name> --quick --no-cache --out results`` and requires the same bytes, so
a claim checked on the file holds for a rerun too, and nothing here
simulates.  Rounding to the printed digits preserves ``<=``: a comparison
of two printed values that holds on the real numbers holds on the file.
Sums and means are taken over printed values, so each term may be off by
half a unit in its last digit; the compared totals are far apart.
"""

import re
from itertools import takewhile
from pathlib import Path

import pytest

from repro.experiments.__main__ import EXPERIMENTS

RESULTS = Path(__file__).resolve().parent.parent / "results"


def table(name: str, title: str) -> list[dict[str, str]]:
    """Rows of the block titled *title* in ``results/<name>.txt``.

    A block is a title line, a header, a dashed rule and the rows up to
    the next blank line; the rule's dash runs give each column's span.
    """
    lines = (RESULTS / f"{name}.txt").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    header, rule, *rest = lines[start + 1 :]
    spans = [match.span() for match in re.finditer(r"-+", rule)]
    keys = [header[a:b].strip() for a, b in spans]
    return [
        {key: row[a:b].strip() for key, (a, b) in zip(keys, spans)}
        for row in takewhile(bool, rest)
    ]


def at_saturation(rows: list[dict[str, str]]) -> dict[str, str]:
    return next(row for row in rows if row["lambda(req/min)"] == "40")


def test_every_table_has_one_producer():
    """Each committed quick table is the output of one CLI experiment."""
    names = sorted(path.stem for path in RESULTS.glob("*.txt"))
    assert names
    assert [name for name in names if name not in EXPERIMENTS] == []


class TestFigures:
    def test_fig4_replication_lowers_rejection_at_saturation(self):
        row = at_saturation(table("fig4", "Figure 4(a)"))
        assert float(row["deg=2"]) <= float(row["deg=1"])

    @pytest.mark.parametrize("subplot", "abcd")
    def test_fig5_zipf_slf_never_worse_than_class_rr(self, subplot):
        row = at_saturation(table("fig5", f"Figure 5({subplot})"))
        assert float(row["zipf+slf"]) <= float(row["class+rr"])

    def test_fig6_class_rr_more_imbalanced(self):
        rows = table("fig6", "Figure 6(a)")
        best = sum(float(row["zipf+slf"]) for row in rows) / len(rows)
        base = sum(float(row["class+rr"]) for row in rows) / len(rows)
        assert best < base


class TestAblations:
    def test_std_never_exceeds_max_deviation(self):
        for row in table("ablations", "E7.2"):
            assert float(row["L std (%)"]) <= float(row["L max-dev (%)"])

    def test_redirection_never_hurts(self):
        rows = table("ablations", "E7.5")
        widest = sum(float(row["backbone=7200"]) for row in rows)
        none = sum(float(row["backbone=0"]) for row in rows)
        assert widest <= none


class TestExtensions:
    def test_availability_failover_and_striping_blast_radius(self):
        rows = {(r["system"], r["mode"]): r for r in table("availability", "E8")}
        base = rows["replicated deg=1", "reject"]
        best = rows["replicated deg=1.6", "failover"]
        striped = next(
            r for (system, _), r in rows.items() if system.startswith("striped")
        )
        assert float(best["rejection"]) < float(base["rejection"])
        assert float(striped["avg streams dropped"]) > float(
            base["avg streams dropped"]
        )

    def test_striping_penalty_grows_with_cluster_size(self):
        largest = table("striping", "E10.2")[-1]
        assert float(largest["striped"]) >= float(largest["replicated"])

    def test_batching_window_never_hurts(self):
        by_rate: dict[str, list[dict[str, str]]] = {}
        for row in table("batching", "E12"):
            by_rate.setdefault(row["lambda(/min)"], []).append(row)
        for cells in by_rate.values():
            cells.sort(key=lambda row: float(row["window(min)"]))
            first, last = cells[0], cells[-1]
            assert float(last["rejection"]) <= float(first["rejection"])
            assert float(last["batching factor"]) >= float(first["batching factor"])

    def test_disk_bound_rejection_falls_with_disks(self):
        rows = table("storage", "E14.2")
        rejections = [float(row["rejection @ saturation"]) for row in rows]
        assert rejections == sorted(rejections, reverse=True)

    def test_dynamic_adaptation_beats_static(self):
        # "mean rejection" is the mean over epochs 1+ of each curve.
        rows = {r["strategy"]: r for r in table("dynamic", "Adaptation cost")}
        static = float(rows["static"]["mean rejection"])
        assert float(rows["oracle"]["mean rejection"]) <= static
        assert float(rows["tracked"]["mean rejection"]) <= static

    def test_sa_improves_on_initial_state(self):
        text = (RESULTS / "sa.txt").read_text()
        initial, best = re.search(
            r"objective: initial (\S+) -> best (\S+)", text
        ).groups()
        assert float(best) > float(initial)

"""The paper's evaluation, reproduced (system S14).

One module per figure of Sec. 5 plus the extension experiments; every
module exposes a ``run_*`` function returning structured results and a
``format_*`` function rendering the paper-comparable series.  The CLI
(``python -m repro.experiments <name> [--quick]``) is a thin wrapper over
these and the only producer of the tables in ``results/``.
"""

from .config import PaperSetup
from .runner import (
    AlgorithmCombo,
    PAPER_COMBOS,
    build_layout,
    rejection_summary,
    simulate_combo,
)

__all__ = [
    "PaperSetup",
    "AlgorithmCombo",
    "PAPER_COMBOS",
    "build_layout",
    "rejection_summary",
    "simulate_combo",
]

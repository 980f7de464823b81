"""paper-all: ``repro all`` in a fresh process with no run store.

The whole paper grid — Fig 4 at 512 KB and 8 KB, Table 1, Fig 5 and
Fig 6: 79 comparisons plus 6 Table 1 cells.  ``repro all`` takes no
input, so the grid is the paper's at every seed and its stdout is
checked against one committed reference, with only Table 1's timing
and speed-up columns masked.
"""

from __future__ import annotations

import re
from typing import Dict, List

from common import PYTHON, REFERENCE, ChildResult, run_child

ARGV = [PYTHON, "-m", "repro", "all"]
REFERENCE_FILE = REFERENCE / "paper_all.txt"
SETUP_ARGV = [PYTHON, "-c", "import repro.cli"]
#: Cells behind one Fig 6 row: 3 bus delays x 3 seeds (run_fig6 defaults).
FIG6_CELLS_PER_ROW = 9

_TABLE1_ROW = re.compile(r"^\s*(\d+)\s+(\d+KB)\s")
_AVG = re.compile(r"avg error vs ISS: MESH ([\d.]+)%.*?Analytical ([\d.]+)%")


def normalize(stdout: str) -> str:
    """``repro all`` stdout with Table 1's host timings masked.

    Table 1 keeps its title, column names and the (procs, cache) key of
    every row; its seconds and speed-up columns (and the widths they
    set) are host measurements and are dropped.
    """
    lines: List[str] = []
    in_table1 = False
    for line in stdout.splitlines():
        if line.startswith("Table 1"):
            in_table1 = True
            lines.append(line)
            continue
        if in_table1:
            if not line.strip():
                in_table1 = False
                lines.append(line)
            elif _TABLE1_ROW.match(line):
                lines.append(" ".join(line.split()[:2]) + " <timing>")
            elif set(line.strip()) <= {"-", " "}:
                lines.append("<rule>")
            else:
                lines.append(" ".join(line.split()))
            continue
        lines.append(line)
    return "\n".join(lines) + "\n"


def accuracy(stdout: str) -> Dict[str, float]:
    """Mean |estimator - ISS| / ISS over the grid's 79 comparisons.

    Rebuilt from the per-figure averages the program prints: Fig 4 and
    Fig 5 footers average their rows, each Fig 6 row averages
    ``FIG6_CELLS_PER_ROW`` cells.
    """
    sums = {"mesh": 0.0, "analytical": 0.0}
    cells = 0
    blocks = stdout.split("\n\n")
    for block in blocks:
        title = block.lstrip().splitlines()[0] if block.strip() else ""
        if title.startswith(("Figure 4", "Figure 5")):
            match = _AVG.search(block)
            rows = sum(1 for line in block.splitlines()
                       if re.match(r"^\s*\d+\s+[\d.,]+\s", line))
            if match:
                sums["mesh"] += rows * float(match.group(1))
                sums["analytical"] += rows * float(match.group(2))
                cells += rows
        elif title.startswith("Figure 6"):
            for line in block.splitlines():
                row = re.match(r"^\s*\d+%\s+([\d.]+)\s+([\d.]+)\s*$", line)
                if row:
                    sums["mesh"] += FIG6_CELLS_PER_ROW * float(row.group(1))
                    sums["analytical"] += (FIG6_CELLS_PER_ROW
                                           * float(row.group(2)))
                    cells += FIG6_CELLS_PER_ROW
    if not cells:
        return {"mesh_err_pct": float("nan"),
                "analytical_err_pct": float("nan"), "cells": 0}
    return {"mesh_err_pct": sums["mesh"] / cells,
            "analytical_err_pct": sums["analytical"] / cells,
            "cells": cells}


def reference() -> str:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        return handle.read()


def run_unit() -> ChildResult:
    """One ``repro all`` process, launch to exit."""
    return run_child(ARGV)


def check(result: ChildResult, expected: str) -> bool:
    return (result.returncode == 0
            and normalize(result.stdout.decode("utf-8")) == expected)

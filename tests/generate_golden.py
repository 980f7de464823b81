"""Regenerate the golden kernel snapshots (``data/golden_kernel.json``).

Run from the repository root::

    PYTHONPATH=src:tests python tests/generate_golden.py

The committed snapshot file pins the *seed* kernel's bit-exact behavior
(results and trace stream) across the full configuration matrix in
:mod:`golden_scenarios`.  Both entries of a configuration (``memo=0`` /
``memo=1``) get the same run; the ``memo`` counter triples are carried
over from the existing file, since the cache that produced them is
gone (a missing file gives all-zero triples).  Only regenerate it when kernel
behavior is *intentionally* changed — the equivalence suite exists to
prove that performance work does **not** change behavior, so a diff in
this file on a perf PR is a regression, not an update.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from golden_scenarios import (config_key, iter_golden_entries,  # noqa: E402
                              run_config)

OUT_PATH = pathlib.Path(__file__).resolve().parent / "data" / (
    "golden_kernel.json")


def main() -> None:
    previous = (json.loads(OUT_PATH.read_text(encoding="utf-8"))
                if OUT_PATH.exists() else {})
    snapshots = {}
    for config, memo in iter_golden_entries():
        key = config_key(*config, memo)
        snapshot = run_config(*config)
        snapshot["memo"] = previous.get(key, {}).get("memo", [0, 0, 0])
        snapshots[key] = snapshot
        print(f"  {key}: makespan={snapshot['makespan']}")
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_text(json.dumps(snapshots, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {OUT_PATH}")


if __name__ == "__main__":
    main()

"""Regenerate the sync golden snapshots (``data/golden_soa.json``).

Run from the repository root::

    PYTHONPATH=src:tests python tests/generate_golden_soa.py

Snapshots come from the **object** engine: the file pins the seed
semantics of barrier/FIFO-mutex scenarios inside the widened compiled
subset, and their compiled SoA replay must reproduce them bit-for-bit,
with every configuration inside the compiled subset.  Only regenerate when kernel
behavior is *intentionally* changed — a diff here on a perf PR is a
regression, not an update.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from golden_soa_scenarios import (SOA_GOLDEN_PATH, iter_soa_configs,  # noqa: E402
                                  soa_config_key, soa_kernel,
                                  soa_snapshot)


def main() -> None:
    snapshots = {}
    for name, mts in iter_soa_configs():
        key = soa_config_key(name, mts)
        snapshots[key] = soa_snapshot(soa_kernel(name, mts).run())
        print(f"  {key}: makespan={snapshots[key]['makespan']}")
    SOA_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    SOA_GOLDEN_PATH.write_text(
        json.dumps(snapshots, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {len(snapshots)} snapshots to {SOA_GOLDEN_PATH}")


if __name__ == "__main__":
    main()

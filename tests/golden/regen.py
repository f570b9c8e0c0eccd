"""Golden outputs: the fixture ``golden.json`` and the function that recomputes it.

``tests/test_golden.py`` compares :func:`outputs` with the committed fixture
exactly.  A change that moves results on purpose regenerates the fixture
with::

    PYTHONPATH=src python tests/golden/regen.py

and quotes the largest relative change in CHANGES.md.  Before it writes,
the script prints, for each output key, how many floats moved against the
committed fixture and the largest relative change among them.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np

from esrate import analysis, harness
from esrate.cli import cli_main
from esrate.objectives import perturbed_family
from esrate.verify import SUITES

FIXTURE = Path(__file__).with_name("golden.json")

#: Suite name -> the small ``n`` its fixture runs at; each suite keeps its default seed.
SUITE_N = {"invariance": 4, "lemmas": 2000, "assumption2": 1000, "drift": 2000}

#: A 2 x 2 x 2 grid with a non-quadratic kind, 3 trials per cell.
EXPERIMENT = harness.ExperimentConfig(
    kinds=("h1", "perturbed"), dims=(5, 12), kappas=(0, 2), trials=3, budget=3000
)

#: ``esrate bounds`` at one ``v_std > 0`` setting, searching the rate bound's supremum.
BOUNDS = ["bounds", "--dim", "3000", "--v-std", "0.0006667", "--p-target", "0.3", "--sup"]


def versions() -> dict:
    """The numpy and OpenBLAS builds that the floats depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def bounds_outputs() -> tuple[dict, list[str]]:
    """The JSON that :data:`BOUNDS` prints and the lines of its ``--trace-out`` CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / "trace.csv"
        with redirect_stdout(io.StringIO()) as stdout:
            if cli_main([*BOUNDS, "--trace-out", str(trace)]) != 0:
                raise RuntimeError(f"esrate {' '.join(BOUNDS)} failed")
        return json.loads(stdout.getvalue()), trace.read_text().splitlines()


def outputs() -> dict:
    """Every golden output, decoded from JSON as the fixture is."""
    out = {}
    for name, n in SUITE_N.items():
        suite, _, seed = SUITES[name]
        out[f"verify:{name}"] = suite(n, seed)
    out["check_assumption2:perturbed(30,2)"] = asdict(
        analysis.check_assumption2(perturbed_family(30, 2), n=5000, seed=31))
    out["q_extremes:perturbed(12,1)"] = asdict(
        analysis.q_extremes(perturbed_family(12, 1), n=2000, seed=2))
    out["experiment"] = [asdict(row) for row in harness.run_experiment(EXPERIMENT)]
    out["bounds"], out["bounds:trace"] = bounds_outputs()
    return json.loads(json.dumps(out, default=float))


def _floats(value, path: str = "") -> dict:
    """``{path: value}`` of every float in a decoded JSON value."""
    if isinstance(value, dict):
        return {p: x for k, v in value.items() for p, x in _floats(v, f"{path}.{k}").items()}
    if isinstance(value, list):
        return {p: x for i, v in enumerate(value) for p, x in _floats(v, f"{path}[{i}]").items()}
    return {path: value} if isinstance(value, float) else {}


def float_changes(old, new) -> str:
    """How many floats at the same path moved from ``old`` to ``new`` (NaN equals NaN),
    the largest relative change among them, and how many paths only one side has."""
    before, after = _floats(old), _floats(new)
    shared = before.keys() & after.keys()
    moved = [p for p in shared
             if before[p] != after[p] and not (math.isnan(before[p]) and math.isnan(after[p]))]
    text = f"{len(moved)} of {len(shared)} floats moved"
    if moved:
        rel = {p: abs(after[p] - before[p]) / abs(before[p]) if before[p] else math.inf
               for p in moved}
        worst = max(rel, key=rel.get)
        text += f", largest relative change {rel[worst]:.3g} at {worst or '.'}"
    if before.keys() != after.keys():
        text += f"; {len(after.keys() - shared)} added, {len(before.keys() - shared)} removed"
    return text


def main() -> None:
    new = outputs()
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text())["outputs"]
        for key in sorted(old.keys() | new.keys()):
            print(f"{key}: {float_changes(old.get(key), new.get(key))}")
    text = json.dumps({"versions": versions(), "outputs": new}, indent=1, sort_keys=True)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()

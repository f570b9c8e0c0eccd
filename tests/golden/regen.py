"""Golden outputs: the fixture ``golden.json`` and the function that recomputes it.

``tests/test_golden.py`` compares :func:`outputs` with the committed fixture
exactly.  A change that moves results on purpose regenerates the fixture
with::

    PYTHONPATH=src python tests/golden/regen.py

and quotes the largest relative change in CHANGES.md.  Before it writes,
the script prints, for each output key, how many floats moved against the
committed fixture and the largest relative change among them, then how many
other leaves (verdict strings, ``ok`` and other booleans, integers) changed.
With ``--dry-run`` it prints the same summary and writes nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import platform
import tempfile
from contextlib import redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np

from esrate import analysis, exact, harness
from esrate.cli import cli_main
from esrate.engine import EsState, rng_stream
from esrate.objectives import perturbed_family
from esrate.verify import SUITES

FIXTURE = Path(__file__).with_name("golden.json")

#: Suite name -> the small ``n`` its fixture runs at; each suite keeps its default seed.
SUITE_N = {"invariance": 4, "lemmas": 2000, "assumption2": 1000, "drift": 2000}

#: Steps of the ``perturbed`` lemma suite's four states; the first is far below ``||m||``.
PERTURBED_SIGMAS = (1e-9, 0.05, 0.5, 2.0)

#: A 2 x 2 x 2 grid with a non-quadratic kind, 3 trials per cell.
EXPERIMENT = harness.ExperimentConfig(
    kinds=("h1", "perturbed"), dims=(5, 12), kappas=(0, 2), trials=3, budget=3000
)

#: ``esrate bounds`` at one ``v_std > 0`` setting, searching the rate bound's supremum.
BOUNDS = ["bounds", "--dim", "3000", "--v-std", "0.0006667", "--p-target", "0.3", "--sup"]


def versions() -> dict:
    """The builds that the floats depend on: numpy and its BLAS, Python (``statistics``
    supplies the normal quantile) and the C library (its libm supplies ``math.erfc``)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "python": platform.python_version(), "libc": " ".join(platform.libc_ver())}


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
        exact.check_assumption2(perturbed_family(30, 2), n=5000, seed=31))
    out["q_extremes:perturbed(12,1)"] = asdict(
        exact.q_extremes(perturbed_family(12, 1), n=2000, seed=2))
    m = rng_stream(8, 3).standard_normal(8)
    out["lemmas:perturbed(8,1)"] = analysis.check_lemma_suite(
        perturbed_family(8, 1), [EsState(m, math.log(s)) for s in PERTURBED_SIGMAS],
        n=2000, seed=8).to_json()
    out["experiment"] = [asdict(row) for row in harness.run_experiment(EXPERIMENT)]
    out["bounds"], out["bounds:trace"] = bounds_outputs()
    return json.loads(json.dumps(out, default=float))


def _leaves(value, path: str = "") -> dict:
    """``{path: value}`` of every leaf of a decoded JSON value; the cells of a
    numeric CSV row such as a ``--trace-out`` line are float leaves."""
    if isinstance(value, dict):
        return {p: x for k, v in value.items() for p, x in _leaves(v, f"{path}.{k}").items()}
    if isinstance(value, list):
        return {p: x for i, v in enumerate(value) for p, x in _leaves(v, f"{path}[{i}]").items()}
    if isinstance(value, str) and "," in value:
        try:
            return {f"{path}[{i}]": float(x) for i, x in enumerate(value.split(","))}
        except ValueError:
            pass
    return {path: value}


def _floats(value, path: str = "") -> dict:
    """The float leaves of :func:`_leaves`."""
    return {p: x for p, x in _leaves(value, path).items() if isinstance(x, float)}


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


def other_changes(old, new) -> str:
    """How many leaves that are not floats (verdict strings, booleans such as
    ``ok``, integers, nulls) changed at the same path from ``old`` to ``new``,
    and how many paths only one side has."""
    before, after = ({p: x for p, x in _leaves(v).items() if not isinstance(x, float)}
                     for v in (old, new))
    shared = before.keys() & after.keys()
    changed = [p for p in shared
               if before[p] != after[p] or type(before[p]) is not type(after[p])]
    text = f"{len(changed)} of {len(shared)} other leaves changed"
    if before.keys() != after.keys():
        text += f"; {len(after.keys() - shared)} added, {len(before.keys() - shared)} removed"
    return text


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Regenerate the golden fixture.")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the per-key summary and leave the fixture as it is")
    args = parser.parse_args(argv)
    new = outputs()
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text())["outputs"]
        for key in sorted(old.keys() | new.keys()):
            before, after = old.get(key), new.get(key)
            print(f"{key}: {float_changes(before, after)}; {other_changes(before, after)}")
    if args.dry_run:
        return
    text = json.dumps({"versions": versions(), "outputs": new}, indent=1, sort_keys=True)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()

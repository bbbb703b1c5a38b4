"""Declarative TOML experiment specs for the benchmark harness.

A *spec* is a benchalot-style description of a sweep: which registered
benchmarks to run, axis overrides for their parameter matrices, repeat
/ seed / mode knobs, and an optional smoke subset — so a new experiment
(e.g. the four-backend bake-off at different block sizes) is a TOML
file, **zero new Python**.  ``python -m repro.bench run --spec FILE``
expands the spec onto :data:`repro.bench.harness.REGISTRY` and runs it
through the ordinary suite runner.

Format (``repro-bench-spec/1``)::

    schema = "repro-bench-spec/1"
    name = "bakeoff"                      # run name; -> BENCH_<name>.json
    description = "Four-backend bake-off"

    [select]
    benchmarks = ["bakeoff_orderers"]     # registry substrings (like --only)

    [run]                                 # all optional
    mode = "full"                         # or "smoke"
    repeats = 3                           # override every benchmark's repeats
    seed = 0                              # override the base seed
    phases = false                        # attach obs hubs (per-phase tables)

    [matrix]                              # replace axis values on every
    orderer = ["solo", "kafka",           # selected benchmark; every axis
               "bftsmart", "smartbft"]    # must already exist in each
    f = [1, 3]                            # benchmark's full matrix

    [smoke.matrix]                        # optional smoke-subset override;
    f = [1]                               # layered over [matrix]

Validation is strict and loud (:class:`SpecError`): unknown top-level
keys, unknown benchmarks, axes that don't exist on a selected
benchmark, empty axis value lists, and bad scalar types are all
errors — a typo must never silently run the wrong sweep.

TOML parsing uses the stdlib :mod:`tomllib` (Python 3.11+) and falls
back to the ``tomli`` package on 3.10; when neither is importable,
loading raises :class:`SpecError` with that explanation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import Benchmark, BenchmarkRegistry, REGISTRY

#: Version tag of the spec documents.
SPEC_SCHEMA = "repro-bench-spec/1"

_TOP_LEVEL_KEYS = {"schema", "name", "description", "select", "run", "matrix", "smoke"}
_RUN_KEYS = {"mode", "repeats", "seed", "phases"}


class SpecError(ValueError):
    """An experiment spec is malformed or does not fit the registry."""


def _load_toml(path: str) -> Dict[str, Any]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - 3.10 fallback
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise SpecError(
                "TOML specs need Python 3.11+ (stdlib tomllib) or the "
                "tomli package"
            ) from None
    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{path}: invalid TOML: {exc}") from None


def _check_axis_values(axis: str, values: Any, where: str) -> Tuple[Any, ...]:
    if not isinstance(values, list) or not values:
        raise SpecError(
            f"{where}: axis {axis!r} must be a non-empty list of values, "
            f"got {values!r}"
        )
    for value in values:
        if not isinstance(value, (str, int, float, bool)):
            raise SpecError(
                f"{where}: axis {axis!r} has non-scalar value {value!r}"
            )
    return tuple(values)


@dataclass(frozen=True)
class ExperimentSpec:
    """A parsed, structurally valid experiment spec."""

    name: str
    description: str
    benchmarks: Tuple[str, ...]
    mode: str = "full"
    repeats: Optional[int] = None
    seed: Optional[int] = None
    phases: bool = False
    matrix: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    smoke_matrix: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)

    @property
    def default_out(self) -> str:
        return f"BENCH_{self.name}.json"


def parse_spec(document: Mapping[str, Any], where: str = "spec") -> ExperimentSpec:
    """Validate a decoded TOML document into an :class:`ExperimentSpec`."""
    if not isinstance(document, Mapping):
        raise SpecError(f"{where}: spec must be a table")
    if document.get("schema") != SPEC_SCHEMA:
        raise SpecError(
            f"{where}: unsupported schema {document.get('schema')!r}; "
            f"expected {SPEC_SCHEMA!r}"
        )
    unknown = sorted(set(document) - _TOP_LEVEL_KEYS)
    if unknown:
        raise SpecError(f"{where}: unknown top-level key(s) {unknown}")

    name = document.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError(f"{where}: 'name' must be a non-empty string")
    safe = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
    if set(name) - safe:
        raise SpecError(
            f"{where}: 'name' may only contain [A-Za-z0-9._-], got {name!r}"
        )
    description = document.get("description", "")
    if not isinstance(description, str):
        raise SpecError(f"{where}: 'description' must be a string")

    select = document.get("select")
    if not isinstance(select, Mapping) or "benchmarks" not in select:
        raise SpecError(f"{where}: missing [select] table with 'benchmarks'")
    unknown = sorted(set(select) - {"benchmarks"})
    if unknown:
        raise SpecError(f"{where}: unknown [select] key(s) {unknown}")
    benchmarks = select["benchmarks"]
    if (
        not isinstance(benchmarks, list)
        or not benchmarks
        or not all(isinstance(b, str) and b for b in benchmarks)
    ):
        raise SpecError(
            f"{where}: select.benchmarks must be a non-empty list of "
            f"name patterns"
        )

    run = document.get("run", {})
    if not isinstance(run, Mapping):
        raise SpecError(f"{where}: [run] must be a table")
    unknown = sorted(set(run) - _RUN_KEYS)
    if unknown:
        raise SpecError(f"{where}: unknown [run] key(s) {unknown}")
    mode = run.get("mode", "full")
    if mode not in ("full", "smoke"):
        raise SpecError(f"{where}: run.mode must be 'full' or 'smoke', got {mode!r}")
    repeats = run.get("repeats")
    if repeats is not None and (not isinstance(repeats, int) or repeats < 1):
        raise SpecError(f"{where}: run.repeats must be an integer >= 1")
    seed = run.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise SpecError(f"{where}: run.seed must be an integer")
    phases = run.get("phases", False)
    if not isinstance(phases, bool):
        raise SpecError(f"{where}: run.phases must be a boolean")

    matrix_doc = document.get("matrix", {})
    if not isinstance(matrix_doc, Mapping):
        raise SpecError(f"{where}: [matrix] must be a table")
    matrix = {
        axis: _check_axis_values(axis, values, f"{where} [matrix]")
        for axis, values in matrix_doc.items()
    }

    smoke_doc = document.get("smoke", {})
    if not isinstance(smoke_doc, Mapping):
        raise SpecError(f"{where}: [smoke] must be a table")
    unknown = sorted(set(smoke_doc) - {"matrix"})
    if unknown:
        raise SpecError(f"{where}: unknown [smoke] key(s) {unknown}")
    smoke_matrix_doc = smoke_doc.get("matrix", {})
    if not isinstance(smoke_matrix_doc, Mapping):
        raise SpecError(f"{where}: [smoke.matrix] must be a table")
    smoke_matrix = {
        axis: _check_axis_values(axis, values, f"{where} [smoke.matrix]")
        for axis, values in smoke_matrix_doc.items()
    }

    return ExperimentSpec(
        name=name,
        description=description,
        benchmarks=tuple(benchmarks),
        mode=mode,
        repeats=repeats,
        seed=seed,
        phases=phases,
        matrix=matrix,
        smoke_matrix=smoke_matrix,
    )


def load_spec(path: str) -> ExperimentSpec:
    """Read + validate a TOML spec file."""
    return parse_spec(_load_toml(path), where=path)


def expand_spec(
    spec: ExperimentSpec, registry: Optional[BenchmarkRegistry] = None
) -> List[Benchmark]:
    """Expand a spec into derived :class:`Benchmark` objects.

    Selection reuses the registry's substring matching (typos fail
    loudly).  Axis overrides *replace* the benchmark's values for that
    axis; every overridden axis must exist in the benchmark's full
    matrix so a spec cannot invent parameters the run callable would
    ignore.  The derived smoke matrix layers ``[smoke.matrix]`` over
    ``[matrix]`` over the benchmark's own smoke subset.  Derived
    benchmarks carry no declared checks.
    """
    if registry is None:
        # populate the default registry with the committed suite
        import repro.bench.suite  # noqa: F401

        registry = REGISTRY
    try:
        selected = registry.select(list(spec.benchmarks))
    except KeyError as exc:
        raise SpecError(str(exc)) from None
    derived: List[Benchmark] = []
    for benchmark in selected:
        for axis in list(spec.matrix) + list(spec.smoke_matrix):
            if axis not in benchmark.matrix:
                raise SpecError(
                    f"axis {axis!r} does not exist on benchmark "
                    f"{benchmark.name!r} (axes: {sorted(benchmark.matrix)})"
                )
        new_matrix = {**benchmark.matrix, **spec.matrix}
        base_smoke = dict(
            benchmark.smoke_matrix
            if benchmark.smoke_matrix is not None
            else benchmark.matrix
        )
        new_smoke = {**base_smoke, **spec.matrix, **spec.smoke_matrix}
        replacements: Dict[str, Any] = {
            "matrix": new_matrix,
            "smoke_matrix": new_smoke,
            # declared checks index the registered matrix, which the
            # spec has just replaced
            "checks": (),
        }
        if spec.repeats is not None:
            replacements["repeats"] = spec.repeats
            replacements["smoke_repeats"] = spec.repeats
        if spec.seed is not None:
            replacements["base_seed"] = spec.seed
        derived.append(dataclasses.replace(benchmark, **replacements))
    return derived


def describe_spec(spec: ExperimentSpec, benchmarks: Sequence[Benchmark]) -> str:
    """One-paragraph expansion summary for the CLI."""
    lines = [
        f"spec {spec.name!r}: {len(benchmarks)} benchmark(s), "
        f"mode={spec.mode}"
        + (f", repeats={spec.repeats}" if spec.repeats is not None else "")
        + (f", seed={spec.seed}" if spec.seed is not None else "")
        + (", phases on" if spec.phases else "")
    ]
    for benchmark in benchmarks:
        points = sum(1 for _ in benchmark.points(spec.mode))
        lines.append(f"  {benchmark.name}: {points} matrix point(s)")
    return "\n".join(lines)

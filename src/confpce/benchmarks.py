"""Benchmark functions, input boxes, and seeded experimental-design sampling.

Four deterministic test functions with uniformly distributed inputs:

* ``meromorphic``: 1 / (1 + 0.5 x) on [-1, 1] (1 input).
* ``otl_circuit``: midpoint voltage of an output transformerless push-pull
  circuit (6 inputs).
* ``piston``: cycle time of a piston moving within a cylinder (7 inputs).
* ``wing_weight``: weight of a light aircraft wing (10 inputs).

Sampling uses numpy's PCG64 generator seeded through a SeedSequence whose
entropy is ``[crc32(benchmark name), stream id, *seed]`` with stream ids
train=0, test=1, so train and test draws are independent streams and a seed
may itself be a tuple (the experiment harness passes (degree, oversampling,
seed index) so that changing one grid axis never shifts another cell's data).
"""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import InputSpec, _integral, check_bytes, total_degree_size
from .errors import DomainError, ValidationError
from .pce import Dataset

_STREAM_IDS = {"train": 0, "test": 1}


@dataclass(frozen=True)
class Benchmark:
    """A ground-truth function together with its input box.

    Attributes:
        name: Registry key.
        input_spec: Box of the uniformly distributed inputs.
        fn: Vectorized evaluator mapping an (n, N) array to (n,) outputs.
        param_names: Input labels, for auditing the parameter tables.
        size_rule: "quadratic" sizes designs as C (P+1)^2 (univariate rule),
            "linear" as C K (multivariate rule).
        degree_grid: Polynomial degrees the reference experiments sweep.
    """

    name: str
    input_spec: InputSpec
    fn: Callable[[np.ndarray], np.ndarray]
    param_names: tuple[str, ...]
    size_rule: str
    degree_grid: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.input_spec.dim


def _meromorphic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + 0.5 * x[:, 0])


def _otl_circuit(x: np.ndarray) -> np.ndarray:
    rb1, rb2, rf, rc1, rc2, beta = (x[:, i] for i in range(6))
    vb1 = 12.0 * rb2 / (rb1 + rb2)
    denom = beta * (rc2 + 9.0) + rf
    return (
        (vb1 + 0.74) * beta * (rc2 + 9.0) / denom
        + 11.35 * rf / denom
        + 0.74 * rf * beta * (rc2 + 9.0) / (denom * rc1)
    )


def _piston(x: np.ndarray) -> np.ndarray:
    weight, area, v0, spring, p0, t_amb, t_gas = (x[:, i] for i in range(7))
    a = p0 * area + 19.62 * weight - spring * v0 / area
    root_arg = a**2 + 4.0 * spring * (p0 * v0 / t_gas) * t_amb
    if not np.all(root_arg > 0.0):
        raise DomainError("piston square-root argument is not positive; inputs lie outside the box")
    v = area / (2.0 * spring) * (np.sqrt(root_arg) - a)
    return 2.0 * np.pi * np.sqrt(weight / (spring + area**2 * (p0 * v0 / t_gas) * (t_gas / v**2)))


def _wing_weight(x: np.ndarray) -> np.ndarray:
    s_w, w_fw, aspect, sweep_deg, q, taper, t_c, n_z, w_dg, w_p = (x[:, i] for i in range(10))
    # Table gives the quarter-chord sweep in degrees; the cosine wants radians.
    sweep = np.radians(sweep_deg)
    return (
        0.036
        * s_w**0.758
        * w_fw**0.0035
        * (aspect / np.cos(sweep) ** 2) ** 0.6
        * q**0.006
        * taper**0.04
        * (100.0 * t_c / np.cos(sweep)) ** (-0.3)
        * (n_z * w_dg) ** 0.49
        + s_w * w_p
    )


_REGISTRY: dict[str, Benchmark] = {}


def register_benchmark(benchmark: Benchmark) -> None:
    """Adds a benchmark to the registry (e.g. synthetic targets in tests)."""
    if benchmark.name in _REGISTRY:
        raise ValidationError(f"benchmark {benchmark.name!r} already registered")
    if benchmark.size_rule not in ("quadratic", "linear"):
        raise ValidationError(f"size_rule must be 'quadratic' or 'linear', got {benchmark.size_rule!r}")
    _REGISTRY[benchmark.name] = benchmark


def get_benchmark(name: str) -> Benchmark:
    """The registered benchmark; a ValidationError names the known ones otherwise."""
    if name not in _REGISTRY:
        raise ValidationError(f"unknown benchmark {name!r}; known: {', '.join(sorted(_REGISTRY))}")
    return _REGISTRY[name]


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


register_benchmark(
    Benchmark(
        name="meromorphic",
        input_spec=InputSpec(ranges=((-1.0, 1.0),)),
        fn=_meromorphic,
        param_names=("x",),
        size_rule="quadratic",
        degree_grid=(2, 3),
    )
)
register_benchmark(
    Benchmark(
        name="otl_circuit",
        input_spec=InputSpec(
            ranges=(
                (50.0, 150.0),   # R_b1 [kOhm]
                (25.0, 70.0),    # R_b2 [kOhm]
                (0.5, 30.0),     # R_f  [kOhm]
                (1.2, 2.5),      # R_c1 [kOhm]
                (0.25, 1.2),     # R_c2 [kOhm]
                (50.0, 300.0),   # beta [A]
            )
        ),
        fn=_otl_circuit,
        param_names=("R_b1", "R_b2", "R_f", "R_c1", "R_c2", "beta"),
        size_rule="linear",
        degree_grid=(1, 2, 3),
    )
)
register_benchmark(
    Benchmark(
        name="piston",
        input_spec=InputSpec(
            ranges=(
                (30.0, 60.0),         # piston weight [kg]
                (0.005, 0.02),        # piston surface area [m^2]
                (0.002, 0.01),        # initial gas volume [m^3]
                (1000.0, 5000.0),     # spring coefficient [N/m]
                (90000.0, 110000.0),  # atmospheric pressure [N/m^2]
                (290.0, 296.0),       # ambient temperature [K]
                (340.0, 360.0),       # filling gas temperature [K]
            )
        ),
        fn=_piston,
        param_names=("M", "S", "V_0", "k", "P_0", "T_a", "T_0"),
        size_rule="linear",
        degree_grid=(2, 3, 4),
    )
)
register_benchmark(
    Benchmark(
        name="wing_weight",
        input_spec=InputSpec(
            ranges=(
                (150.0, 200.0),    # wing area [ft^2]
                (220.0, 300.0),    # wing fuel weight [lb]
                (6.0, 10.0),       # aspect ratio
                (-10.0, 10.0),     # quarter-chord sweep [deg]
                (16.0, 45.0),      # dynamic pressure at cruise [lb/ft^2]
                (0.5, 1.0),        # taper ratio
                (0.08, 0.18),      # thickness-to-chord ratio
                (2.5, 6.0),        # ultimate load factor
                (1700.0, 2500.0),  # flight design gross weight [lb]
                (0.025, 0.08),     # paint weight [lb/ft^2]
            )
        ),
        fn=_wing_weight,
        param_names=("S_w", "W_fw", "A", "Lambda", "q", "lambda", "t_c", "N_z", "W_dg", "W_p"),
        size_rule="linear",
        degree_grid=(1, 2),
    )
)


def _seed_entropy(name: str, seed, stream: str) -> list[int]:
    if stream not in _STREAM_IDS:
        raise ValidationError(f"stream must be one of {sorted(_STREAM_IDS)}, got {stream!r}")
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    parts = [_integral("seed", p) for p in parts]
    if any(p < 0 for p in parts):
        raise ValidationError(f"seed needs non-negative integers, got {seed!r}")
    return [zlib.crc32(name.encode()), _STREAM_IDS[stream], *parts]


def sample_design(name: str, m: int, seed, stream: str = "train") -> Dataset:
    """Draws m i.i.d. uniform points in the box, paired with exact outputs.

    Deterministic per (name, m, seed, stream): the PCG64 generator is seeded
    from [crc32(name), stream id, *seed], so the same arguments always return
    bitwise-identical datasets and train/test streams never overlap. `seed`
    may be a non-negative int or a tuple of them.

    Raises:
        ValidationError: If the benchmark is unknown, m is not an integer
            >= 1 or a seed is not a non-negative integer.
        BasisSizeError: If the 8 m N bytes of the inputs exceed
            MAX_BASIS_BYTES; raised before anything is allocated.
    """
    m = _integral("design size", m, 1)
    bench = get_benchmark(name)
    check_bytes(8 * m * bench.dim, f"design of {m} points of dimension {bench.dim}")
    rng = np.random.default_rng(np.random.SeedSequence(_seed_entropy(name, seed, stream)))
    inputs = rng.uniform(bench.input_spec.lower(), bench.input_spec.upper(), size=(m, bench.dim))
    return Dataset(inputs=inputs, outputs=bench.fn(inputs))


def design_size(name: str, degree: int, oversampling: int) -> int:
    """Experimental-design size for a degree/oversampling combination.

    Univariate rule (meromorphic): M = C (P+1)^2, required for a well
    conditioned one-dimensional least-squares problem. Multivariate rule:
    M = C K with K the total-degree basis size. Under either rule K is
    counted, never enumerated, and checked against the size limit.

    Raises:
        ValidationError: If the benchmark is unknown, degree or oversampling
            is not an integral real number, degree < 0 or oversampling < 1.
        BasisSizeError: If the basis is over the limit of
            :func:`~confpce.basis.total_degree_size`, from the count alone.
    """
    degree, oversampling = _integral("degree", degree, 0), _integral("oversampling", oversampling, 1)
    bench = get_benchmark(name)
    k = total_degree_size(bench.dim, degree)
    return oversampling * ((degree + 1) ** 2 if bench.size_rule == "quadratic" else k)


def _csv_number(field: str) -> float:
    """float(field) for ASCII numbers: no `_` digit separators, no non-ASCII digits."""
    if "_" in field or not field.isascii():
        raise ValidationError(field)
    return float(field)


def read_csv_table(fh) -> tuple[list[str], np.ndarray]:
    """Reads a numeric CSV from an open file: (header fields stripped of spaces, rows as floats).

    Blank lines are skipped. The table has shape (rows, len(header)). A
    field is a number as float() reads it, written in ASCII without `_`
    separators: float() also takes `1_000` and digits of other scripts.

    Raises:
        ValidationError: On an empty file, a header with no rows, or a
            non-numeric or ragged row.
    """
    reader = csv.reader(fh)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError("empty CSV: expected a header row") from None
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValidationError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append([_csv_number(v) for v in row])
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric field in {row!r}") from None
    if not rows:
        raise ValidationError("CSV contains a header but no data rows")
    return header, np.asarray(rows)


def dataset_from_csv(fh) -> Dataset:
    """Reads a dataset from an open CSV file with header x1,...,xN,y, one row per sample.

    Raises:
        ValidationError: On a malformed header or a bad row or number.
    """
    header, table = read_csv_table(fh)
    n = len(header) - 1
    if n < 1 or header != [f"x{i + 1}" for i in range(n)] + ["y"]:
        raise ValidationError(f"malformed header {header!r}; expected x1,...,xN,y")
    return Dataset(inputs=table[:, :-1], outputs=table[:, -1])

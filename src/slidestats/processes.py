"""Point processes for the simulation harness.

Each process is named by a :class:`ProcessSpec`; :func:`generate` is a pure
function of the spec, the sample size, and an optional explicit random
stream, so any sample can be regenerated from the provenance alone.  Streams
are counter-based (Philox) and keyed by ``(master_seed, stream_index)``,
which makes replicates independent of each other and of how work is
scheduled across workers.

Random kinds cover the distributions used in the simulation studies;
cos_iteration, primes and from_file are deterministic and ignore the stream.
The self-similar sets, cantor and sierpinski, draw independent points: each
point gets 40 i.i.d. address digits from random bytes, and one Horner helper
combines per-byte table values into exact integer codes, so two points tie
only when all 40 digits agree.  Every kind gives float coordinates except
cantor, whose points are the uint64 codes in units of 3^-40 (see
:func:`_gen_cantor`); the statistics are scale invariant, and
:meth:`PointSet.from_coords` keeps the codes integer, so the 1-d extractions
take their gaps exactly.  Sierpinski codes are in units of 2^-41 for x and
(sqrt(3)/2) 2^-40 for y; x converts to float exactly and y with one rounding
(see :func:`_gen_sierpinski`).  The parameters of from_file are checked when
its spec is built, like every other parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError
from .geometry import PointSet

__all__ = [
    "GENERATOR_NAME",
    "ProcessSpec",
    "RandomStream",
    "first_primes",
    "generate",
    "process_kinds",
    "substream",
]

GENERATOR_NAME = "Philox"


def _byte_codes(base, digits, weights, scale, dtype) -> np.ndarray:
    # Byte b < base^digits holds the address digits d_j = b // base^j % base,
    # the first of them in d_(digits-1): its code is sum weights[d_j] scale^j.
    # Built in Python: numpy ufuncs at import would add their code pages to
    # the RSS of every process.
    codes = [
        sum(weights[b // base**j % base] * scale**j for j in range(digits))
        for b in range(base**digits)
    ]
    return np.array(codes, dtype=dtype)


# Cantor: 8 bits as the ternary digits 0 and 2, a code below 3^8.
_CANTOR_BYTE_DIGITS = _byte_codes(2, 8, (0, 2), 3, np.uint64)
# Sierpinski: 5 base-3 digits, which address the vertices (0, 0), (1, 0) and
# (1/2, sqrt(3)/2): x in units of 1/2 and y in units of sqrt(3)/2, each code
# below 2^6.
_SIERPINSKI_BYTE_X = _byte_codes(3, 5, (0, 2, 1), 2, float)
_SIERPINSKI_BYTE_Y = _byte_codes(3, 5, (0, 0, 1), 2, float)
# The point file formats that load_points reads.
_POINT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RandomStream:
    """A reproducible random stream keyed by master seed and stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValueError("master_seed and stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index,)
        )
        return np.random.Generator(np.random.Philox(seq))


def substream(master_seed: int, replicate: int) -> RandomStream:
    """The stream that drives replicate ``replicate`` of an experiment."""
    return RandomStream(master_seed, replicate)


def _as_int(value: Any, error: str) -> int:
    """``value`` as a Python int; numpy integers pass, bool does not.

    The one integer rule of configs and process specs; anything else raises
    :class:`ConfigError` with the message ``error``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(error)
    return int(value)


def _gen_uniform_cube(rng: np.random.Generator, k: int, params: dict) -> np.ndarray:
    return rng.random((k, params.get("dim", 1)))


def _gen_normal(rng, k, params):
    return rng.standard_normal((k, 1))


def _gen_bivariate_normal(rng, k, params):
    return rng.standard_normal((k, 2))


def _gen_exponential(rng, k, params):
    return rng.standard_exponential((k, 1))


def _gen_log_uniform(rng, k, params):
    # 1 - u lies in (0, 1], so the log is finite.
    return np.log(1.0 - rng.random((k, 1)))


def _gen_inv_sqrt(rng, k, params):
    # Inverse-cdf sampling of the density 1 / (2 sqrt(x)) on (0, 1].
    u = rng.random((k, 1))
    return u * u


def _horner(table: np.ndarray, base: Any, raw: np.ndarray) -> np.ndarray:
    """``sum_i table[raw[i]] base^(m-1-i)`` over the ``m`` rows of ``raw``.

    Horner's rule, in the dtype of ``table``; beyond the result it holds one
    row of table values.
    """
    code = table[raw[0]]
    for row in raw[1:]:
        code *= base
        code += table[row]
    return code


def _gen_cantor(rng, k, params):
    # Each point is 5 random bytes, read as 40 ternary digits of 0 or 2, most
    # significant first: the uint64 code sum d_j 3^(40-j) of the point
    # sum d_j 3^-j.  Horner's rule in powers of 3^8 keeps every partial code
    # below 3^40 < 2^64, so it is exact, and two points tie only when all 40
    # digits agree.
    raw = rng.integers(0, 256, size=(5, k), dtype=np.uint8)
    return _horner(_CANTOR_BYTE_DIGITS, np.uint64(3**8), raw)[:, None]


def _gen_sierpinski(rng, k, params):
    # Each point is 8 random bytes below 3^5, read as 40 i.i.d. address
    # digits d_j, most significant first: the point sum v_{d_j} 2^-j.  Its
    # codes X = sum 2 x(v_{d_j}) 2^(40-j) and Y = sum [d_j = 2] 2^(40-j) are
    # integers below 2^41, so Horner's rule in powers of 2^5 is exact in
    # floats.  Then x = X 2^-41 is exact and y = Y (sqrt(3)/2) 2^-40 is rounded
    # once; the map from addresses to points is injective, so two points tie
    # only when all 40 digits agree.  The bytes are freed before the (k, 2)
    # result is built, so at most four arrays of k floats are live.
    raw = rng.integers(0, 3**5, size=(8, k), dtype=np.uint8)
    x = _horner(_SIERPINSKI_BYTE_X, 2.0**5, raw)
    y = _horner(_SIERPINSKI_BYTE_Y, 2.0**5, raw)
    del raw
    x *= 2.0**-41
    y *= 0.5 * math.sqrt(3.0) * 2.0**-40
    return np.column_stack((x, y))


def _gen_circle(rng, k, params):
    u = 2.0 * math.pi * rng.random(k)
    return np.column_stack((np.sin(u), np.cos(u)))


def _gen_disk(rng, k, params):
    # Radius times a uniform angle; mass concentrates toward the center.
    u = rng.random(k)
    v = 2.0 * math.pi * rng.random(k)
    return np.column_stack((u * np.sin(v), u * np.cos(v)))


def _gen_disk_uniform(rng, k, params):
    out = np.empty((k, 2))
    filled = 0
    while filled < k:
        chunk = max(64, int(1.3 * (k - filled)) + 8)
        draw = 2.0 * rng.random((chunk, 2)) - 1.0
        keep = draw[np.einsum("ij,ij->i", draw, draw) <= 1.0]
        take = min(keep.shape[0], k - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def _gen_cos_iteration(rng, k, params):
    steps = np.cos(np.arange(k - 1, dtype=float))
    return np.concatenate(([0.0], np.cumsum(steps)))[:, None]


def _gen_primes(rng, k, params):
    return first_primes(k)[:, None]


def _gen_from_file(rng, k, params):
    path = params["path"]
    from .harness import load_points  # deferred: harness depends on this module

    points = load_points(path, params.get("format"))
    if k > len(points):
        raise ConfigError(
            f"from_file at {path!r} provides {len(points)} points, "
            f"but {k} were requested"
        )
    return points.coords[:k]


# kind: (builder, accepted parameters, whether the builder reads the stream)
_KINDS: dict[str, tuple[Any, set[str], bool]] = {
    "uniform_cube": (_gen_uniform_cube, {"dim"}, True),
    "normal": (_gen_normal, set(), True),
    "bivariate_normal": (_gen_bivariate_normal, set(), True),
    "exponential": (_gen_exponential, set(), True),
    "log_uniform": (_gen_log_uniform, set(), True),
    "inv_sqrt": (_gen_inv_sqrt, set(), True),
    "cantor": (_gen_cantor, set(), True),
    "sierpinski": (_gen_sierpinski, set(), True),
    "circle": (_gen_circle, set(), True),
    "disk": (_gen_disk, set(), True),
    "disk_uniform": (_gen_disk_uniform, set(), True),
    "cos_iteration": (_gen_cos_iteration, set(), False),
    "primes": (_gen_primes, set(), False),
    "from_file": (_gen_from_file, {"path", "format"}, False),
}
# Parameters whose values are text: a command line passes them on as given.
_TEXT_PARAMS = frozenset({"path", "format"})


def process_kinds() -> list[str]:
    """Names of the available process kinds."""
    return sorted(_KINDS)


def _ignores_stream(kind: str) -> bool:
    """Whether every draw of ``kind`` gives the same points, whatever the stream."""
    return not _KINDS[kind][2]


@dataclass(frozen=True)
class ProcessSpec:
    """A named point process with its parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise ConfigError(
                f"unknown process kind {self.kind!r}; "
                f"choose from {process_kinds()}"
            )
        if not isinstance(self.params, dict):
            raise ConfigError(
                f"process params must be an object, got {self.params!r}"
            )
        extra = set(self.params) - _KINDS[self.kind][1]
        if extra:
            raise ConfigError(
                f"process {self.kind!r} does not accept parameters {sorted(extra)}"
            )
        # Integers are stored as Python ints, so that a report can serialise them.
        if "dim" in self.params:  # only uniform_cube accepts a dim
            dim = self.params["dim"]
            error = f"uniform_cube needs an integer dim >= 1, got {dim!r}"
            dim = _as_int(dim, error)
            if dim < 1:
                raise ConfigError(error)
            object.__setattr__(self, "params", {**self.params, "dim": dim})
        if self.kind == "from_file":
            path, fmt = self.params.get("path"), self.params.get("format")
            if not isinstance(path, str) or not path:
                raise ConfigError(f"from_file needs a nonempty path, got {path!r}")
            if fmt not in (None, *_POINT_FORMATS):
                raise ConfigError(f"from_file format {fmt!r} not in {_POINT_FORMATS}")


def generate(
    spec: ProcessSpec, k: int, stream: RandomStream | None = None
) -> PointSet:
    """Generate ``k`` points of the process named by ``spec``.

    A pure function of ``(spec, k, stream)``; when ``stream`` is omitted it
    draws from ``RandomStream(0, 0)``.  Deterministic kinds ignore the stream
    entirely.
    """
    if k < 1:
        raise ValueError("at least one point must be requested")
    if stream is None:
        stream = RandomStream(0, 0)
    builder = _KINDS[spec.kind][0]
    coords = builder(stream.generator(), k, spec.params)
    return PointSet.from_coords(coords)


def _simple_sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def first_primes(k: int) -> np.ndarray:
    """The first ``k`` primes, via a segmented sieve with bounded memory."""
    if k < 1:
        raise ValueError("k must be positive")
    small = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])
    if k <= small.size:
        return small[:k].copy()
    # Rosser's bound p_k < k (ln k + ln ln k) holds for k >= 6.
    log_k = math.log(k)
    limit = int(k * (log_k + math.log(log_k))) + 16
    base = _simple_sieve(int(limit**0.5) + 1)
    out = np.empty(k)
    found = 0
    segment = 1 << 23
    for lo in range(2, limit + 1, segment):
        hi = min(lo + segment, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        primes = np.flatnonzero(mask) + lo
        take = min(primes.size, k - found)
        out[found : found + take] = primes[:take]
        found += take
        if found == k:
            return out
    raise RuntimeError("prime bound was insufficient")  # unreachable by Rosser

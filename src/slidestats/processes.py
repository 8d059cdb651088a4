"""Point processes for the simulation harness.

Each process is named by a :class:`ProcessSpec`; :func:`generate` is a pure
function of the spec, the sample size, and an optional explicit random
stream, so any sample can be regenerated from the provenance alone.  Streams
are counter-based (Philox) and keyed by ``(master_seed, stream_index)``,
which makes replicates independent of each other and of how work is
scheduled across workers.

Random kinds cover the distributions used in the simulation studies;
cos_iteration and primes are deterministic and ignore the stream.
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

_SIERPINSKI_BURN_IN = 100
_CHAOS_CHUNK = 512
_CANTOR_DIGITS = 40


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


def _require_params(kind: str, params: dict, allowed: set[str]) -> None:
    extra = set(params) - allowed
    if extra:
        raise ConfigError(
            f"process {kind!r} does not accept parameters {sorted(extra)}"
        )


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


def _gen_cantor(rng, k, params):
    digits = 2.0 * rng.integers(0, 2, size=(k, _CANTOR_DIGITS))
    weights = 3.0 ** -np.arange(1, _CANTOR_DIGITS + 1)
    return (digits @ weights)[:, None]


def _gen_sierpinski(rng, k, params):
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5 * math.sqrt(3.0)]])
    path = vertices[rng.integers(0, 3, size=k + _SIERPINSKI_BURN_IN)]
    # The chaos game y_i = (y_{i-1} + v_i) / 2 runs as cumulative sums over
    # chunks of the targets: from the point s before a chunk, its i-th step
    # (from 0) is 2^(i+1) y_i = s + sum_{h <= i} 2^h v_h.  Scaling by a power
    # of two is exact, so each partial sum rounds exactly as the sequential
    # step does, and the chunk length keeps 2^i far from overflow.  The path
    # overwrites the targets, and its burn-in points are dropped.
    steps = np.arange(_CHAOS_CHUNK)
    up = np.ldexp(1.0, steps)[:, None]  # 2^i
    down = np.ldexp(1.0, -steps - 1)[:, None]  # 2^-(i+1)
    y = vertices.mean(axis=0)
    for lo in range(0, path.shape[0], _CHAOS_CHUNK):
        chunk = path[lo : lo + _CHAOS_CHUNK]
        m = chunk.shape[0]
        np.multiply(chunk, up[:m], out=chunk)
        chunk[0] += y
        np.cumsum(chunk, axis=0, out=chunk)
        np.multiply(chunk, down[:m], out=chunk)
        y = chunk[-1]
    return path[_SIERPINSKI_BURN_IN:]


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
    if k == 1:
        return np.zeros((1, 1))
    steps = np.cos(np.arange(k - 1, dtype=float))
    return np.concatenate(([0.0], np.cumsum(steps)))[:, None]


def _gen_primes(rng, k, params):
    return first_primes(k)[:, None]


def _gen_from_file(rng, k, params):
    path = params.get("path")
    if not isinstance(path, str) or not path:
        raise ConfigError("from_file needs a 'path' parameter")
    from .harness import load_points  # deferred: harness depends on this module

    points = load_points(path, params.get("format"))
    if k > len(points):
        raise ConfigError(
            f"from_file at {path!r} provides {len(points)} points, "
            f"but {k} were requested"
        )
    return points.coords[:k]


_KINDS: dict[str, tuple[Any, set[str]]] = {
    "uniform_cube": (_gen_uniform_cube, {"dim"}),
    "normal": (_gen_normal, set()),
    "bivariate_normal": (_gen_bivariate_normal, set()),
    "exponential": (_gen_exponential, set()),
    "log_uniform": (_gen_log_uniform, set()),
    "inv_sqrt": (_gen_inv_sqrt, set()),
    "cantor": (_gen_cantor, set()),
    "sierpinski": (_gen_sierpinski, set()),
    "circle": (_gen_circle, set()),
    "disk": (_gen_disk, set()),
    "disk_uniform": (_gen_disk_uniform, set()),
    "cos_iteration": (_gen_cos_iteration, set()),
    "primes": (_gen_primes, set()),
    "from_file": (_gen_from_file, {"path", "format"}),
}


def process_kinds() -> list[str]:
    """Names of the available process kinds."""
    return sorted(_KINDS)


@dataclass(frozen=True)
class ProcessSpec:
    """A named point process with parameters and a default seed.

    ``seed`` is used only by :func:`generate` called without a stream.
    :func:`~slidestats.harness.run_experiment` always draws from substreams
    of the config's ``master_seed``, so ``seed`` has no effect on an
    experiment; it is kept because configs and reports carry it.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

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
        _require_params(self.kind, self.params, _KINDS[self.kind][1])
        # Integers are stored as Python ints, so that a report can serialise them.
        if "dim" in self.params:  # only uniform_cube accepts a dim
            dim = self.params["dim"]
            error = f"uniform_cube needs an integer dim >= 1, got {dim!r}"
            dim = _as_int(dim, error)
            if dim < 1:
                raise ConfigError(error)
            object.__setattr__(self, "params", {**self.params, "dim": dim})
        error = "seed must be a nonnegative integer"
        seed = _as_int(self.seed, error)
        if seed < 0:
            raise ConfigError(error)
        object.__setattr__(self, "seed", seed)


def generate(
    spec: ProcessSpec, k: int, stream: RandomStream | None = None
) -> PointSet:
    """Generate ``k`` points of the process named by ``spec``.

    A pure function of ``(spec, k, stream)``; when ``stream`` is omitted the
    spec's own seed drives stream 0.  Deterministic kinds ignore the stream
    entirely.
    """
    if k < 1:
        raise ValueError("at least one point must be requested")
    if stream is None:
        stream = RandomStream(spec.seed, 0)
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

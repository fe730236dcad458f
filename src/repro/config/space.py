"""Typed configuration spaces for tuning.

A :class:`ConfigurationSpace` is an ordered collection of named, typed
parameters.  It is the contract between the systems under tuning (Spark
simulator, cloud catalogue) and every tuner: tuners draw samples, encode
configurations into the unit hypercube for surrogate models, and decode
model suggestions back into valid configurations.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping
from typing import Any

import numpy as np

__all__ = [
    "Parameter",
    "IntParameter",
    "FloatParameter",
    "BoolParameter",
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "config_fingerprint",
]


class Parameter(ABC):
    """A single named, typed tuning knob.

    Every parameter knows how to sample a value, map values to and from the
    unit interval (for vector encodings used by model-based tuners), and
    enumerate a grid of representative values.
    """

    def __init__(self, name: str, default: Any, description: str = ""):
        if not name:
            raise ValueError("parameter name must be non-empty")
        self.name = name
        self.default = default
        self.description = description

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random value for this parameter."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map ``value`` into [0, 1]."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Inverse of :meth:`to_unit` (with rounding for discrete types)."""

    @abstractmethod
    def grid(self, resolution: int) -> list[Any]:
        """Return up to ``resolution`` representative values, ordered."""

    @abstractmethod
    def validate(self, value: Any) -> None:
        """Raise ``ValueError`` if ``value`` is not legal for this parameter."""

    def neighbor(self, value: Any, rng: np.random.Generator, scale: float = 0.15) -> Any:
        """Return a value near ``value``; used by local-search tuners."""
        u = self.to_unit(value)
        step = rng.normal(0.0, scale)
        return self.from_unit(min(1.0, max(0.0, u + step)))

    @property
    def cardinality(self) -> float:
        """Number of distinct values (``math.inf`` for continuous)."""
        return math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r}, default={self.default!r})"


class _NumericParameter(Parameter):
    """Shared behaviour for int/float ranges, optionally log-scaled."""

    def __init__(self, name, low, high, default=None, log=False, description=""):
        if low >= high:
            raise ValueError(f"{name}: low ({low}) must be < high ({high})")
        if log and low <= 0:
            raise ValueError(f"{name}: log-scaled parameters need low > 0")
        self.low = low
        self.high = high
        self.log = log
        # Unit-interval bounds are fixed at construction; sampling maps
        # through them on every draw, so compute the logs once.
        if log:
            self._unit_lo, self._unit_hi = math.log(low), math.log(high)
        else:
            self._unit_lo, self._unit_hi = float(low), float(high)
        if default is None:
            default = self.from_unit(0.5)
        super().__init__(name, default, description)
        self.validate(self.default)

    def _bounds_unit(self) -> tuple[float, float]:
        return self._unit_lo, self._unit_hi

    def to_unit(self, value) -> float:
        self.validate(value)
        lo, hi = self._bounds_unit()
        v = math.log(value) if self.log else float(value)
        return (v - lo) / (hi - lo)

    def _from_unit_float(self, u: float) -> float:
        u = min(1.0, max(0.0, float(u)))
        lo = self._unit_lo
        v = lo + u * (self._unit_hi - lo)
        return math.exp(v) if self.log else v


class IntParameter(_NumericParameter):
    """Integer-valued range parameter (inclusive bounds)."""

    def sample(self, rng: np.random.Generator) -> int:
        return self.from_unit(rng.random())

    def from_unit(self, u: float) -> int:
        return int(round(min(self.high, max(self.low, self._from_unit_float(u)))))

    def grid(self, resolution: int) -> list[int]:
        n = min(resolution, self.high - self.low + 1)
        values = sorted({self.from_unit(u) for u in np.linspace(0.0, 1.0, n)})
        return values

    def validate(self, value) -> None:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{self.name}: expected int, got {value!r}")
        if not self.low <= value <= self.high:
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")

    @property
    def cardinality(self) -> float:
        return self.high - self.low + 1


class FloatParameter(_NumericParameter):
    """Real-valued range parameter (inclusive bounds)."""

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(rng.random())

    def from_unit(self, u: float) -> float:
        return float(min(self.high, max(self.low, self._from_unit_float(u))))

    def grid(self, resolution: int) -> list[float]:
        return [self.from_unit(u) for u in np.linspace(0.0, 1.0, max(2, resolution))]

    def validate(self, value) -> None:
        if not isinstance(value, (int, float, np.floating, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{self.name}: expected float, got {value!r}")
        if not self.low <= value <= self.high:
            raise ValueError(f"{self.name}: {value} outside [{self.low}, {self.high}]")


class BoolParameter(Parameter):
    """Boolean flag parameter."""

    def __init__(self, name: str, default: bool = False, description: str = ""):
        super().__init__(name, bool(default), description)

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < 0.5)

    def to_unit(self, value) -> float:
        self.validate(value)
        return 1.0 if value else 0.0

    def from_unit(self, u: float) -> bool:
        return bool(u >= 0.5)

    def grid(self, resolution: int) -> list[bool]:
        return [False, True]

    def validate(self, value) -> None:
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{self.name}: expected bool, got {value!r}")

    def neighbor(self, value, rng: np.random.Generator, scale: float = 0.15) -> bool:
        # A local move on a flag is a flip with probability ~scale.
        if rng.random() < max(scale, 0.05) * 2:
            return not value
        return bool(value)

    @property
    def cardinality(self) -> float:
        return 2


class CategoricalParameter(Parameter):
    """Unordered choice among a finite set of values."""

    def __init__(self, name: str, choices, default=None, description: str = ""):
        choices = list(choices)
        if len(choices) < 2:
            raise ValueError(f"{name}: need at least 2 choices")
        if len(set(choices)) != len(choices):
            raise ValueError(f"{name}: duplicate choices")
        self.choices = choices
        super().__init__(name, choices[0] if default is None else default, description)
        self.validate(self.default)

    def sample(self, rng: np.random.Generator):
        return self.choices[int(rng.integers(len(self.choices)))]

    def to_unit(self, value) -> float:
        self.validate(value)
        idx = self.choices.index(value)
        if len(self.choices) == 1:
            return 0.0
        return idx / (len(self.choices) - 1)

    def from_unit(self, u: float):
        u = min(1.0, max(0.0, float(u)))
        idx = int(round(u * (len(self.choices) - 1)))
        return self.choices[idx]

    def grid(self, resolution: int) -> list[Any]:
        return list(self.choices)

    def validate(self, value) -> None:
        if value not in self.choices:
            raise ValueError(f"{self.name}: {value!r} not in {self.choices}")

    def neighbor(self, value, rng: np.random.Generator, scale: float = 0.15):
        if rng.random() < max(scale, 0.05) * 2:
            others = [c for c in self.choices if c != value]
            return others[int(rng.integers(len(others)))]
        return value

    @property
    def cardinality(self) -> float:
        return len(self.choices)


class Configuration(Mapping):
    """An immutable, hashable assignment of values to every space parameter."""

    # _fingerprint memoizes the content digest (config_fingerprint,
    # below), which keys the engine's cache and the simulator's cost
    # programs and derives per-config seeds, several times per
    # evaluation on the hot path.
    # _grant memoizes the cluster-manager packing decision
    # (repro.config.constraints.grant_resources), likewise asked twice
    # per evaluation (tuner-side repair, then the simulator).
    __slots__ = ("_values", "_hash", "_fingerprint", "_grant")

    _values: dict[str, Any]
    _hash: int | None
    _fingerprint: str | None
    _grant: tuple[Any, Any] | None

    def __init__(self, values: Mapping[str, Any]):
        self._values = dict(values)
        self._hash = None
        self._fingerprint = None
        self._grant = None

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def get(self, key: str, default: Any = None) -> Any:
        # Mapping.get is a Python-level call into __getitem__; the cost
        # model asks for ~20 knobs per evaluation, so delegate to the
        # backing dict's C implementation.
        return self._values.get(key, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def replace(self, **updates: Any) -> "Configuration":
        """Return a copy with some values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(merged)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._values)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._values.items(), key=lambda kv: kv[0])))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Configuration):
            return self._values == other._values
        if isinstance(other, Mapping):
            return self._values == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(f"{k}={v!r}" for k, v in sorted(self._values.items()))
        return f"Configuration({body})"


def config_fingerprint(config: Mapping[str, Any]) -> str:
    """Stable digest of a configuration's items.

    Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``),
    so it cannot key a cache, or seed a candidate, that must agree across
    runs.  This digest is derived from the sorted ``repr`` of the
    items, which is deterministic for the str/int/float/bool values
    configurations hold.
    """
    cached = getattr(config, "_fingerprint", None)
    if cached is not None:
        return cached
    # Configuration backs its Mapping interface with a plain dict;
    # hashing that directly skips the abc ItemsView iteration (the items
    # and therefore the digest are identical either way).
    values = getattr(config, "_values", None)
    items = values.items() if values is not None else config.items()
    payload = repr(sorted(items)).encode()
    digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
    try:
        # Configuration reserves a slot for exactly this memo; other
        # mappings (plain dicts, test doubles) simply skip it.
        config._fingerprint = digest  # type: ignore[attr-defined]
    except (AttributeError, TypeError):
        pass
    return digest


class ConfigurationSpace:
    """An ordered collection of parameters defining the tuning search space.

    The space provides uniform sampling, unit-hypercube encoding/decoding
    used by surrogate-model tuners, neighbourhood moves for local search,
    and the total cardinality estimate the paper quotes (e.g. "30 Spark
    parameters exceed 10^40 configurations").
    """

    def __init__(self, parameters, name: str = "space"):
        self.name = name
        self._params: dict[str, Parameter] = {}
        for p in parameters:
            if p.name in self._params:
                raise ValueError(f"duplicate parameter {p.name!r}")
            self._params[p.name] = p
        if not self._params:
            raise ValueError("configuration space needs at least one parameter")

    @property
    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    @property
    def names(self) -> list[str]:
        return list(self._params.keys())

    @property
    def dimension(self) -> int:
        return len(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def subspace(self, names, name: str | None = None) -> "ConfigurationSpace":
        """Restrict to a subset of parameters (order preserved)."""
        missing = [n for n in names if n not in self._params]
        if missing:
            raise KeyError(f"unknown parameters: {missing}")
        keep = set(names)
        params = [p for p in self._params.values() if p.name in keep]
        return ConfigurationSpace(params, name=name or f"{self.name}-sub")

    def default_configuration(self) -> Configuration:
        return Configuration({p.name: p.default for p in self._params.values()})

    def sample_configuration(self, rng: np.random.Generator) -> Configuration:
        return Configuration({p.name: p.sample(rng) for p in self._params.values()})

    def sample_configurations(self, n: int, rng: np.random.Generator) -> list[Configuration]:
        return [self.sample_configuration(rng) for _ in range(n)]

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` unless ``config`` assigns a legal value to every parameter."""
        extra = set(config) - set(self._params)
        if extra:
            raise ValueError(f"unknown parameters: {sorted(extra)}")
        for p in self._params.values():
            if p.name not in config:
                raise ValueError(f"missing parameter {p.name!r}")
            p.validate(config[p.name])

    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a configuration as a vector in the unit hypercube."""
        return np.array(
            [p.to_unit(config[p.name]) for p in self._params.values()], dtype=float
        )

    def decode(self, vector: np.ndarray) -> Configuration:
        """Decode a unit-hypercube vector back into a configuration."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dimension,):
            raise ValueError(
                f"expected vector of shape ({self.dimension},), got {vector.shape}"
            )
        values = {
            p.name: p.from_unit(u) for p, u in zip(self._params.values(), vector)
        }
        return Configuration(values)

    def neighbor(
        self,
        config: Configuration,
        rng: np.random.Generator,
        scale: float = 0.15,
        n_moves: int = 1,
    ) -> Configuration:
        """Perturb ``n_moves`` randomly chosen parameters of ``config``."""
        names = list(self._params)
        chosen = rng.choice(len(names), size=min(n_moves, len(names)), replace=False)
        updates = {}
        for i in np.atleast_1d(chosen):
            p = self._params[names[int(i)]]
            updates[p.name] = p.neighbor(config[p.name], rng, scale=scale)
        return config.replace(**updates)

    def latin_hypercube(self, n: int, rng: np.random.Generator) -> list[Configuration]:
        """Latin hypercube sample of ``n`` configurations (stratified per axis)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        d = self.dimension
        # One stratified permutation per dimension.
        u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
        return [self.decode(row) for row in u]

    def log_cardinality(self) -> float:
        """log10 of the number of distinct configurations.

        Continuous parameters are counted at a conventional resolution of
        100 distinguishable levels, matching how the paper's "exceeds 10^40"
        style estimates are made.
        """
        total = 0.0
        for p in self._params.values():
            card = p.cardinality
            total += math.log10(100 if math.isinf(card) else card)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConfigurationSpace({self.name!r}, dim={self.dimension})"

"""Feature encodings of configurations for surrogate models.

The compact encoding — one column per parameter, values in [0, 1],
ordinal treatment of categoricals — is ``ConfigurationSpace.encode``
(inverted by ``decode``), which GP tuners call directly.  This module
adds:

* :class:`OneHotEncoder` — categoricals and booleans expand into indicator
  columns.  Used by tree ensembles and linear models, where ordinal
  treatment of unordered choices would invent spurious structure.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .space import (
    BoolParameter,
    CategoricalParameter,
    ConfigurationSpace,
)

__all__ = ["OneHotEncoder", "ConfigColumns"]


class ConfigColumns:
    """Struct-of-arrays view of a batch of configurations.

    Surrogate encoders map configurations into model feature spaces; this
    helper instead extracts *raw* parameter columns as numpy arrays, one
    value per candidate, for consumers that evaluate a whole batch of
    configurations in vectorized passes (the simulator's batch cost
    model).  Values are taken verbatim via ``Mapping.get``, so defaults
    match the scalar code paths that read the same keys.
    """

    def __init__(self, configs):
        self.configs = list(configs)
        self.n = len(self.configs)

    def floats(self, name: str, default=None) -> np.ndarray:
        return np.array(
            [float(c.get(name, default)) for c in self.configs], dtype=float,
        )

    def ints(self, name: str, default=None) -> np.ndarray:
        return np.array(
            [int(c.get(name, default)) for c in self.configs], dtype=np.int64,
        )

    def bools(self, name: str, default: bool = False) -> np.ndarray:
        return np.array(
            [bool(c.get(name, default)) for c in self.configs], dtype=bool,
        )

    def mapped(self, fn) -> np.ndarray:
        """One float per candidate via an arbitrary per-config function."""
        return np.array([fn(c) for c in self.configs], dtype=float)


class OneHotEncoder:
    """Encode configurations with one-hot categoricals (not invertible)."""

    def __init__(self, space: ConfigurationSpace):
        self.space = space
        self._columns: list[tuple[str, object]] = []
        for p in space.parameters:
            if isinstance(p, CategoricalParameter):
                for choice in p.choices:
                    self._columns.append((p.name, choice))
            else:
                self._columns.append((p.name, None))

    @property
    def dimension(self) -> int:
        return len(self._columns)

    @property
    def feature_names(self) -> list[str]:
        names = []
        for pname, choice in self._columns:
            names.append(pname if choice is None else f"{pname}={choice}")
        return names

    def encode(self, config: Mapping) -> np.ndarray:
        row = np.zeros(len(self._columns), dtype=float)
        for j, (pname, choice) in enumerate(self._columns):
            p = self.space[pname]
            if choice is not None:
                row[j] = 1.0 if config[pname] == choice else 0.0
            elif isinstance(p, BoolParameter):
                row[j] = 1.0 if config[pname] else 0.0
            else:
                row[j] = p.to_unit(config[pname])
        return row

    def encode_many(self, configs) -> np.ndarray:
        return np.array([self.encode(c) for c in configs], dtype=float)

"""Tests for the one-hot configuration encoder."""

import numpy as np
import pytest

from repro.config import (
    BoolParameter,
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
    OneHotEncoder,
)


@pytest.fixture
def mixed_space():
    return ConfigurationSpace([
        IntParameter("i", 1, 10, default=5),
        FloatParameter("f", 0.0, 1.0, default=0.5),
        BoolParameter("b", default=True),
        CategoricalParameter("c", ["x", "y", "z"]),
    ])


class TestOneHotEncoder:
    def test_dimension_expands_categoricals(self, mixed_space):
        # i, f, b are single columns; c expands into 3.
        assert OneHotEncoder(mixed_space).dimension == 3 + 3

    def test_feature_names(self, mixed_space):
        names = OneHotEncoder(mixed_space).feature_names
        assert "c=x" in names and "c=y" in names and "c=z" in names
        assert "i" in names

    def test_one_hot_is_exclusive(self, mixed_space, rng):
        enc = OneHotEncoder(mixed_space)
        names = enc.feature_names
        cat_cols = [j for j, n in enumerate(names) if n.startswith("c=")]
        for c in mixed_space.sample_configurations(20, rng):
            row = enc.encode(c)
            assert row[cat_cols].sum() == 1.0

    def test_bool_encoded_as_indicator(self, mixed_space):
        enc = OneHotEncoder(mixed_space)
        j = enc.feature_names.index("b")
        cfg = mixed_space.default_configuration()
        assert enc.encode(cfg)[j] == 1.0
        assert enc.encode(cfg.replace(b=False))[j] == 0.0

    def test_numeric_in_unit_scale(self, mixed_space):
        enc = OneHotEncoder(mixed_space)
        j = enc.feature_names.index("f")
        cfg = mixed_space.default_configuration().replace(f=1.0)
        assert enc.encode(cfg)[j] == 1.0

    def test_encode_many_shape(self, mixed_space, rng):
        enc = OneHotEncoder(mixed_space)
        X = enc.encode_many(mixed_space.sample_configurations(7, rng))
        assert X.shape == (7, enc.dimension)
        assert np.isfinite(X).all()

"""Unit tests for parameter types and configuration spaces."""

import math

import numpy as np
import pytest

from repro.config import (
    BoolParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
)


class TestIntParameter:
    def test_bounds_inclusive(self):
        p = IntParameter("x", 1, 10, default=5)
        p.validate(1)
        p.validate(10)

    def test_rejects_out_of_range(self):
        p = IntParameter("x", 1, 10)
        with pytest.raises(ValueError):
            p.validate(0)
        with pytest.raises(ValueError):
            p.validate(11)

    def test_rejects_non_int(self):
        p = IntParameter("x", 1, 10)
        with pytest.raises(ValueError):
            p.validate(2.5)
        with pytest.raises(ValueError):
            p.validate(True)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            IntParameter("x", 10, 1)

    def test_unit_roundtrip(self):
        p = IntParameter("x", 1, 100)
        for v in [1, 7, 50, 100]:
            assert p.from_unit(p.to_unit(v)) == v

    def test_log_scale_midpoint(self):
        p = IntParameter("x", 1, 10000, log=True)
        assert p.from_unit(0.5) == 100  # geometric midpoint

    def test_log_scale_requires_positive_low(self):
        with pytest.raises(ValueError):
            IntParameter("x", 0, 10, log=True)

    def test_sample_within_bounds(self, rng):
        p = IntParameter("x", 3, 9)
        samples = [p.sample(rng) for _ in range(200)]
        assert all(3 <= s <= 9 for s in samples)
        assert len(set(samples)) > 3  # actually varied

    def test_grid_ordered_unique(self):
        p = IntParameter("x", 1, 5)
        grid = p.grid(10)
        assert grid == sorted(set(grid))
        assert len(grid) <= 5

    def test_cardinality(self):
        assert IntParameter("x", 1, 5).cardinality == 5

    def test_neighbor_stays_in_range(self, rng):
        p = IntParameter("x", 1, 10)
        for _ in range(50):
            assert 1 <= p.neighbor(5, rng) <= 10


class TestFloatParameter:
    def test_unit_roundtrip(self):
        p = FloatParameter("x", 0.1, 0.9)
        for v in [0.1, 0.5, 0.9]:
            assert p.from_unit(p.to_unit(v)) == pytest.approx(v)

    def test_clamps_out_of_unit(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.from_unit(-0.5) == 0.0
        assert p.from_unit(1.5) == 1.0

    def test_rejects_bool(self):
        p = FloatParameter("x", 0.0, 1.0)
        with pytest.raises(ValueError):
            p.validate(True)

    def test_cardinality_infinite(self):
        assert math.isinf(FloatParameter("x", 0.0, 1.0).cardinality)

    def test_default_respects_bounds(self):
        p = FloatParameter("x", 2.0, 4.0)
        assert 2.0 <= p.default <= 4.0


class TestBoolParameter:
    def test_unit_mapping(self):
        p = BoolParameter("flag")
        assert p.to_unit(True) == 1.0
        assert p.to_unit(False) == 0.0
        assert p.from_unit(0.7) is True
        assert p.from_unit(0.3) is False

    def test_grid(self):
        assert BoolParameter("flag").grid(5) == [False, True]

    def test_rejects_non_bool(self):
        with pytest.raises(ValueError):
            BoolParameter("flag").validate(1)

    def test_neighbor_flips_sometimes(self, rng):
        p = BoolParameter("flag")
        flips = sum(p.neighbor(False, rng, scale=0.2) for _ in range(100))
        assert 0 < flips < 100


class TestCategoricalParameter:
    def test_requires_two_choices(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["only"])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CategoricalParameter("c", ["a", "a"])

    def test_unit_roundtrip(self):
        p = CategoricalParameter("c", ["a", "b", "c"])
        for v in ["a", "b", "c"]:
            assert p.from_unit(p.to_unit(v)) == v

    def test_validate_unknown(self):
        p = CategoricalParameter("c", ["a", "b"])
        with pytest.raises(ValueError):
            p.validate("z")

    def test_default_is_first_choice(self):
        assert CategoricalParameter("c", ["x", "y"]).default == "x"

    def test_grid_is_all_choices(self):
        p = CategoricalParameter("c", ["a", "b", "c"])
        assert p.grid(2) == ["a", "b", "c"]


class TestConfiguration:
    def test_mapping_interface(self):
        c = Configuration({"a": 1, "b": 2})
        assert c["a"] == 1
        assert len(c) == 2
        assert set(c) == {"a", "b"}

    def test_hashable_and_equal(self):
        c1 = Configuration({"a": 1, "b": 2})
        c2 = Configuration({"b": 2, "a": 1})
        assert c1 == c2
        assert hash(c1) == hash(c2)
        assert len({c1, c2}) == 1

    def test_replace_returns_new(self):
        c1 = Configuration({"a": 1})
        c2 = c1.replace(a=5)
        assert c1["a"] == 1
        assert c2["a"] == 5

    def test_equality_with_plain_dict(self):
        assert Configuration({"a": 1}) == {"a": 1}


class TestConfigurationSpace:
    def _space(self):
        return ConfigurationSpace([
            IntParameter("i", 1, 10, default=5),
            FloatParameter("f", 0.0, 1.0, default=0.5),
            BoolParameter("b"),
            CategoricalParameter("c", ["x", "y", "z"]),
        ])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConfigurationSpace([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ConfigurationSpace([IntParameter("i", 1, 2), IntParameter("i", 1, 3)])

    def test_default_configuration_valid(self):
        s = self._space()
        s.validate(s.default_configuration())

    def test_sample_valid(self, rng):
        s = self._space()
        for _ in range(50):
            s.validate(s.sample_configuration(rng))

    def test_validate_rejects_missing_and_extra(self):
        s = self._space()
        with pytest.raises(ValueError):
            s.validate({"i": 5})
        cfg = s.default_configuration().as_dict()
        cfg["extra"] = 1
        with pytest.raises(ValueError):
            s.validate(cfg)

    def test_encode_decode_roundtrip(self, rng):
        s = self._space()
        for _ in range(30):
            c = s.sample_configuration(rng)
            vector = s.encode(c)
            assert vector.shape == (4,)
            assert (vector >= 0).all() and (vector <= 1).all()
            assert s.decode(vector) == c

    def test_decode_rejects_wrong_shape(self):
        s = self._space()
        with pytest.raises(ValueError):
            s.decode(np.zeros(2))

    def test_subspace_preserves_order(self):
        s = self._space()
        sub = s.subspace(["f", "c"])
        assert sub.names == ["f", "c"]

    def test_subspace_unknown_raises(self):
        with pytest.raises(KeyError):
            self._space().subspace(["nope"])

    def test_neighbor_changes_few_params(self, rng):
        s = self._space()
        c = s.default_configuration()
        diffs = []
        for _ in range(100):
            n = s.neighbor(c, rng, n_moves=1)
            diffs.append(sum(1 for k in s.names if n[k] != c[k]))
        assert max(diffs) <= 1

    def test_latin_hypercube_stratified(self, rng):
        s = ConfigurationSpace([FloatParameter("f", 0.0, 1.0)])
        configs = s.latin_hypercube(10, rng)
        # One sample per decile.
        deciles = sorted(int(c["f"] * 10) % 10 for c in configs)
        assert deciles == list(range(10))

    def test_latin_hypercube_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            self._space().latin_hypercube(0, rng)

    def test_log_cardinality_counts_dimensions(self):
        s = self._space()
        # 10 ints * 100 float levels * 2 bools * 3 cats
        expected = math.log10(10) + math.log10(100) + math.log10(2) + math.log10(3)
        assert s.log_cardinality() == pytest.approx(expected)

    def test_contains_and_getitem(self):
        s = self._space()
        assert "i" in s
        assert s["i"].name == "i"
        assert "missing" not in s

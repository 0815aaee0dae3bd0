import numpy as np
import pytest

from fillinlab.errors import GraphInputError
from fillinlab.generate import cycle, gnp, grid, random_regular, random_subcubic


class TestGnp:
    def test_deterministic(self):
        assert gnp(8, 0.5, 1) == gnp(8, 0.5, 1)
        assert gnp(8, 0.5, 1) != gnp(8, 0.5, 2)

    def test_extremes(self):
        assert gnp(6, 0.0, 3).m == 0
        assert gnp(6, 1.0, 3).m == 15

    def test_probability_validated(self):
        with pytest.raises(GraphInputError):
            gnp(4, 1.5, 0)

    @pytest.mark.parametrize("n", [4.0, True, "4"], ids=["float", "bool", "str"])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(GraphInputError, match="^n must be an integer"):
            gnp(n, 0.5, 0)
        assert gnp(np.int64(6), 0.5, 3) == gnp(6, 0.5, 3)

    def test_negative_n_names_n(self):
        with pytest.raises(GraphInputError, match="^n must be nonnegative, got -1"):
            gnp(-1, 0.5, 1)


class TestRegular:
    def test_degrees(self):
        g = random_regular(10, 3, 7)
        assert (g.degrees() == 3).all()

    def test_odd_product_rejected(self):
        with pytest.raises(GraphInputError, match="odd"):
            random_regular(5, 3, 0)

    def test_degree_too_large(self):
        with pytest.raises(GraphInputError):
            random_regular(4, 4, 0)

    def test_deterministic(self):
        assert random_regular(12, 3, 9) == random_regular(12, 3, 9)

    @pytest.mark.parametrize("n, d", [(4.0, 2), (True, 0), ("4", 2), (4, 2.0), (4, False)])
    def test_non_integer_sizes_rejected(self, n, d):
        name = "n" if n.__class__ is not int else "d"
        with pytest.raises(GraphInputError, match=f"^{name} must be an integer"):
            random_regular(n, d, 0)
        assert random_regular(np.int64(6), np.int32(2), 5) == random_regular(6, 2, 5)

    @pytest.mark.parametrize("n, d, seed, name", [(-1, 2, 1000, "n"), (4, -1, 1000, "d")])
    def test_negative_parameter_is_named(self, n, d, seed, name):
        with pytest.raises(GraphInputError, match=f"^{name} must be nonnegative, got -1"):
            random_regular(n, d, seed)


class TestShapes:
    def test_cycle(self):
        g = cycle(6)
        assert g.m == 6 and (g.degrees() == 2).all()

    def test_cycle_too_small(self):
        with pytest.raises(GraphInputError):
            cycle(2)

    def test_grid(self):
        g = grid(3, 4)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_grid_validation(self):
        with pytest.raises(GraphInputError):
            grid(0, 3)

    @pytest.mark.parametrize("n", [4.0, True, "5", None])
    def test_cycle_non_integer_rejected(self, n):
        with pytest.raises(GraphInputError, match="^n must be an integer"):
            cycle(n)

    @pytest.mark.parametrize("rows, cols", [(2.0, 2), (True, 3), (3, True), (2, 2.5), ("2", 2)])
    def test_grid_non_integer_rejected(self, rows, cols):
        name = "rows" if rows.__class__ is not int else "cols"
        with pytest.raises(GraphInputError, match=f"^{name} must be an integer"):
            grid(rows, cols)
        assert grid(np.int64(2), np.uint8(3)) == grid(2, 3)


class TestSubcubic:
    def test_degree_bound_and_no_isolates(self):
        for seed in range(10):
            g = random_subcubic(10, seed)
            if g.n == 0:
                continue
            assert int(g.degrees().max(initial=0)) <= 3
            assert int(g.degrees().min(initial=1)) >= 1

    def test_no_forbidden_clique(self):
        from fillinlab.reduction import find_forbidden_clique

        for seed in range(10):
            g = random_subcubic(9, seed)
            assert find_forbidden_clique(g, 3) is None

    def test_k4_components_are_removed(self):
        """A sampled K_4 is a whole component and is stripped, so the graph can
        have fewer than n vertices, and a vertex can stay isolated."""
        assert random_subcubic(4, 1).n == 0
        g = random_subcubic(1, 0)
        assert g.n == 1 and g.m == 0

    @pytest.mark.parametrize("n", [5.0, True, "5", -1])
    def test_bad_n_rejected(self, n):
        match = "^n must be nonnegative" if n == -1 else "^n must be an integer"
        with pytest.raises(GraphInputError, match=match):
            random_subcubic(n, 0)
        assert random_subcubic(np.int64(9), 3) == random_subcubic(9, 3)

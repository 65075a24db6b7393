"""Unit tests for graph generation."""

import numpy as np
import pytest

from repro.apps.graphs import generate_graph, generate_rmat, generate_uniform
from repro.errors import ConfigError


class TestUniform:
    def test_csr_wellformed(self):
        g = generate_uniform(100, 4, seed=1)
        assert g.num_vertices == 100
        assert g.indptr.shape == (101,)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert (np.diff(g.indptr) >= 0).all()
        assert g.indices.shape == g.weights.shape

    def test_no_self_loops(self):
        g = generate_uniform(50, 8, seed=2)
        for v in range(50):
            targets, _ = g.neighbors(v)
            assert v not in targets

    def test_no_duplicate_edges(self):
        g = generate_uniform(50, 8, seed=3)
        for v in range(50):
            targets, _ = g.neighbors(v)
            assert len(set(targets.tolist())) == len(targets)

    def test_weights_in_range(self):
        g = generate_uniform(100, 4, seed=4)
        assert (g.weights >= 1).all()
        assert (g.weights <= 10).all()

    def test_reproducible(self):
        a = generate_uniform(64, 4, seed=5)
        b = generate_uniform(64, 4, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.weights, b.weights)

    def test_avg_degree_approximate(self):
        g = generate_uniform(1000, 8, seed=6)
        # Some multi-edges collapse; expect close to but below n*deg.
        assert 0.85 * 8000 < g.num_edges <= 8000


class TestRmat:
    def test_wellformed(self):
        g = generate_rmat(128, 8, seed=1)
        assert g.num_vertices == 128
        assert g.indptr[-1] == g.num_edges
        assert g.num_edges > 0

    def test_skewed_degrees(self):
        g = generate_rmat(512, 16, seed=2)
        degrees = np.diff(g.indptr)
        # RMAT should produce a heavier tail than uniform.
        assert degrees.max() > 3 * degrees.mean()

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            generate_rmat(128, 8, a=0.5, b=0.3, c=0.3)  # a+b+c >= 1


class TestDispatchAndHelpers:
    def test_generate_graph_kinds(self):
        assert generate_graph(64, 4, kind="uniform").num_vertices == 64
        assert generate_graph(64, 4, kind="rmat").num_vertices == 64
        with pytest.raises(ConfigError):
            generate_graph(64, 4, kind="smallworld")

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            generate_uniform(1, 4)
        with pytest.raises(ConfigError):
            generate_uniform(10, 0)

import io
import math

import numpy as np
import pytest

from gwspeed import (
    FinitePmf,
    ModelError,
    PercolatedModel,
    backbone_pmf,
    bush_mean_size,
    cluster_speed,
    estimate_speed,
    parse_law,
    pipes_speed,
    run_walk,
    simulate_pipes,
    thinned_pmf,
)
from gwspeed.cli import run
from gwspeed.simulate import (
    GREEN,
    PIPE,
    RED,
    BushSampler,
    Cluster,
    PipesCluster,
    SimulationError,
    walk_path,
)

BINARY = FinitePmf([0, 0, 1])


def binary_model(p=0.75):
    return PercolatedModel(BINARY, p)


class TestExpandGreen:
    def test_full_tree_always_two_green(self):
        m = binary_model(1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = Cluster(m)
            kids = c.expand_green(0, rng)
            assert len(kids) == 2
            assert all(c.color[k] == GREEN for k in kids)

    def test_green_histogram_matches_backbone_law(self):
        m = binary_model()
        rng = np.random.default_rng(1)
        sampler = BushSampler(m)
        n = 10**5
        counts = np.zeros(3, dtype=int)
        for _ in range(n):
            c = Cluster(m, bush_sampler=sampler)
            kids = c.expand_green(0, rng)
            counts[sum(1 for k in kids if c.color[k] == GREEN)] += 1
        assert counts[0] == 0  # rejection guarantees a green child
        for k in (1, 2):
            pk = backbone_pmf(m, k)
            se = math.sqrt(pk * (1 - pk) / n)
            assert abs(counts[k] / n - pk) <= 5 * se

    def test_red_children_mean_matches_enumeration(self):
        # brute-force enumeration over (thinned count c <= 2, reds l <= 2),
        # conditioned on at least one green child
        m = binary_model()
        rho = m.rho
        norm = 0.0
        expect_red = 0.0
        for c in range(3):
            for g in range(1, c + 1):
                prob = (thinned_pmf(m, c) * math.comb(c, g)
                        * (1 - rho) ** g * rho ** (c - g))
                norm += prob
                expect_red += prob * (c - g)
        expect_red /= norm
        assert norm == pytest.approx(1 - rho, abs=1e-12)

        rng = np.random.default_rng(2)
        sampler = BushSampler(m)
        n = 10**5
        reds = np.empty(n)
        for i in range(n):
            cl = Cluster(m, bush_sampler=sampler)
            kids = cl.expand_green(0, rng)
            reds[i] = sum(1 for k in kids if cl.color[k] == RED)
        se = reds.std(ddof=1) / math.sqrt(n)
        assert abs(reds.mean() - expect_red) <= 5 * se

    def test_requires_unexpanded_green(self):
        m = binary_model()
        rng = np.random.default_rng(3)
        c = Cluster(m)
        c.expand_green(0, rng)
        with pytest.raises(Exception):
            c.expand_green(0, rng)


class TestExpandRed:
    def _grow_bush(self, cluster, root, rng):
        """Fully expand the red component below `root`; return its size."""
        stack = [root]
        size = 0
        while stack:
            node = stack.pop()
            size += 1
            kids = cluster.expand_red(node, rng)
            assert all(cluster.color[k] == RED for k in kids)
            stack.extend(kids)
        return size

    def test_bush_sizes_match_mean_and_stay_finite(self):
        m = binary_model()
        rng = np.random.default_rng(4)
        sampler = BushSampler(m)
        n = 10**5
        sizes = np.empty(n)
        cluster = Cluster(m, bush_sampler=sampler)
        roots = cluster._attach(0, 0, n, rng)  # n red children of the root
        for i, root in enumerate(roots):
            sizes[i] = self._grow_bush(cluster, root, rng)
        se = sizes.std(ddof=1) / math.sqrt(n)
        assert abs(sizes.mean() - bush_mean_size(m)) <= 5 * se
        assert sizes.max() < 10**4  # subcritical: no runaway bush

    def test_rho_zero_has_no_red_machinery(self):
        m = binary_model(1.0)
        c = Cluster(m)
        assert c.bush_sampler is None

    def test_depth_increments(self):
        m = binary_model()
        rng = np.random.default_rng(5)
        c = Cluster(m)
        for k in c.expand(0, rng):
            assert c.depth[k] == 1
            assert c.parent[k] == 0


class TestRunWalk:
    def test_first_step_from_root_is_depth_one(self):
        m = binary_model(1.0)
        for seed in range(20):
            assert run_walk(m, 1, np.random.default_rng(seed)) == 1

    def test_degenerate_law_rejected_upstream(self):
        with pytest.raises(ModelError):
            PercolatedModel(FinitePmf([0, 1]), 0.9)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            run_walk(binary_model(), 0, np.random.default_rng(0))

    def test_walk_path_consistent_with_run_walk(self):
        m = binary_model()
        path_cluster = Cluster(m)
        path = walk_path(path_cluster, 500, np.random.default_rng(7))
        depth = run_walk(m, 500, np.random.default_rng(7))
        assert path_cluster.depth[path[-1]] == depth

    def test_transition_frequencies_uniform_on_frozen_ball(self):
        # freeze a depth-2 ball of the full binary tree and chi-square the
        # exits of a degree-3 vertex at the 1% level (df = 2, crit 9.21)
        m = binary_model(1.0)
        rng = np.random.default_rng(8)
        c = Cluster(m)
        for node in c.expand(0, rng):
            c.expand(node, rng)
        for node in range(len(c.parent)):
            if c.nchild[node] < 0:
                c.nchild[node] = 0  # leaves: degree 1, ball frozen
        vertex = c.first[0]
        neighbors = [c.parent[vertex]] + list(range(c.first[vertex],
                                                    c.first[vertex] + c.nchild[vertex]))
        assert len(neighbors) == 3
        path = walk_path(c, 10**5, rng)
        exits = {nb: 0 for nb in neighbors}
        for here, nxt in zip(path, path[1:]):
            if here == vertex:
                exits[nxt] += 1
        total = sum(exits.values())
        assert total > 1000
        chi2 = sum((obs - total / 3) ** 2 / (total / 3) for obs in exits.values())
        assert chi2 < 9.21


class TestArenaInvariants:
    @pytest.mark.parametrize("new_cluster", [
        lambda: Cluster(binary_model()),
        lambda: Cluster(PercolatedModel(parse_law("poisson:2"), 0.8)),
        lambda: PipesCluster(binary_model(0.8)),
    ], ids=["binary", "poisson:2", "pipes"])
    def test_children_contiguous_and_counted(self, new_cluster):
        c = new_cluster()
        path = walk_path(c, 20000, np.random.default_rng(12))
        expanded = [v for v in range(len(c.parent)) if c.nchild[v] >= 0]
        assert len(expanded) > 100
        for v in expanded:
            for ch in range(c.first[v], c.first[v] + c.nchild[v]):
                assert c.parent[ch] == v
                assert c.depth[ch] == c.depth[v] + 1
        # node counter consistency: the root plus every child ever attached
        assert len(c.parent) == 1 + sum(c.nchild[v] for v in expanded)
        assert len(c.depth) == len(c.color) == len(c.first) == len(c.nchild) == len(c.parent)
        # every step moves along an edge of the arena
        for here, nxt in zip(path, path[1:]):
            assert c.parent[nxt] == here or c.parent[here] == nxt

    def test_pipe_nodes_form_chains(self):
        c = PipesCluster(binary_model(0.8))
        walk_path(c, 20000, np.random.default_rng(12))
        pipe = [v for v in range(len(c.parent)) if c.color[v] == PIPE]
        assert len(pipe) > 100
        for v in pipe:
            assert 0 <= c.nchild[v] <= 1
            if c.nchild[v]:
                assert c.first[v] == v + 1
        # a skeleton vertex's pipe head is its last child
        for v in range(len(c.parent)):
            if c.color[v] != PIPE and c.nchild[v] > 0:
                kids = range(c.first[v], c.first[v] + c.nchild[v])
                assert all(c.color[k] != PIPE for k in kids[:-1])

    def test_node_cap_applies_to_pipes(self):
        c = PipesCluster(binary_model(0.95), max_nodes=50)
        with pytest.raises(SimulationError):
            walk_path(c, 10**4, np.random.default_rng(0))
        assert len(c.parent) <= 50


class TestEstimateSpeed:
    def test_reproducible_bit_identical(self):
        m = binary_model()
        a = estimate_speed(m, 2000, 16, 42)
        b = estimate_speed(m, 2000, 16, 42)
        assert a == b

    def test_full_tree_speed(self):
        m = binary_model(1.0)
        est = estimate_speed(m, 10**4, 100, 42)
        assert abs(est.speed_hat - 1 / 3) <= 5 * est.std_error

    def test_percolated_binary_speed(self):
        m = binary_model()
        est = estimate_speed(m, 10**4, 100, 42)
        assert abs(est.speed_hat - cluster_speed(m)) <= 5 * est.std_error
        assert 0.0 <= est.speed_hat <= 1.0

    def test_transience_in_practice(self):
        m = binary_model()
        target = 10**5 * cluster_speed(m) / 2
        hits = sum(run_walk(m, 10**5, np.random.default_rng([9, r])) > target
                   for r in range(40))
        assert hits >= 38  # >= 95% of replicas

    def test_preconditions(self):
        m = binary_model()
        with pytest.raises(ValueError):
            estimate_speed(m, 100, 10, 0)
        with pytest.raises(ValueError):
            estimate_speed(m, 2000, 1, 0)


class TestSimulatePipes:
    def test_reproducible(self):
        assert simulate_pipes(0.75, 2000, 8, 5) == simulate_pipes(0.75, 2000, 8, 5)

    def test_near_full_retention_is_slow(self):
        # diffusive pipe excursions dominate; |X_T|/T decays like 1/sqrt(T)
        est = simulate_pipes(0.999, 3 * 10**4, 16, 6)
        assert est.speed_hat < 0.01

    def test_rise_then_fall_shape(self):
        lo = simulate_pipes(0.55, 10**4, 60, 7)
        mid = simulate_pipes(0.8, 10**4, 60, 7)
        hi = simulate_pipes(0.95, 10**4, 60, 7)
        assert mid.speed_hat > lo.speed_hat
        assert mid.speed_hat > hi.speed_hat

    def test_known_discrepancy_with_closed_form_is_stable(self):
        # the Remark-2 closed form disagrees with simulation (see the
        # acceptance suite); the simulated value itself is stable around
        # the independently derived (2p-1)^2 (1-p)/(-4p^3+10p^2-7p+3)
        derived = (2 * 0.75 - 1) ** 2 * 0.25 / (-4 * 0.75**3 + 10 * 0.75**2 - 7 * 0.75 + 3)
        est = simulate_pipes(0.75, 2 * 10**4, 100, 11)
        assert abs(est.speed_hat - derived) <= 5 * est.std_error
        assert abs(est.speed_hat - pipes_speed(0.75)) > 5 * est.std_error

    def test_rejects_bad_p(self):
        with pytest.raises(ModelError):
            simulate_pipes(0.5, 2000, 8, 0)
        with pytest.raises(ModelError):
            simulate_pipes(1.0, 2000, 8, 0)


class TestSeededGolden:
    """Seeded output pinned verbatim. A change to the random stream must
    edit these strings and announce the new contract in CHANGES.md."""

    SIMULATE_CSV = (
        "p,speed_hat,std_error,replicas,horizon,seed,analytic,z\n"
        "0.75,0.1368625,0.00188491544903,16,10000,42,0.133333333333,1.8723209407\n"
    )
    PIPES_CSV = (
        "p,closed_form,speed_hat,std_error,replicas,horizon,seed,z\n"
        "0.8,0.0136587142597,0.0429875,0.00138665890423,16,10000,7,21.1506850394\n"
    )
    ESTIMATES = {
        "poisson:2": "WalkEstimate(speed_hat=0.08404999999999999, "
                     "std_error=0.0018144328774211149, replicas=16, horizon=10000, "
                     "seed=42, law_spec='poisson:2.0', p=0.8)",
        "geometric:0.6667": "WalkEstimate(speed_hat=0.0403875, "
                            "std_error=0.001125236086339218, replicas=16, horizon=10000, "
                            "seed=42, law_spec='geometric:0.6667', p=0.8)",
    }

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        assert run(argv, out=out) == 0
        return out.getvalue()

    def test_simulate_csv(self):
        assert self._cli(["simulate", "--law", "pmf:0,0,1", "--p", "0.75",
                          "--horizon", "10000", "--replicas", "16",
                          "--seed", "42"]) == self.SIMULATE_CSV

    def test_pipes_csv(self):
        assert self._cli(["pipes", "--p", "0.8", "--simulate", "--horizon", "10000",
                          "--replicas", "16", "--seed", "7"]) == self.PIPES_CSV

    @pytest.mark.parametrize("spec", sorted(ESTIMATES))
    def test_estimate_repr(self, spec):
        est = estimate_speed(PercolatedModel(parse_law(spec), 0.8), 10**4, 16, 42)
        assert repr(est) == self.ESTIMATES[spec]

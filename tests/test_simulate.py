import io
import math
import sys
import threading
import time

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
from gwspeed import _ckernel
from gwspeed import simulate as sim
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


# The benchmark's six sweep laws, each at p halfway between 1/m and 1.
SWEEP_LAWS = ("pmf:0,0,1", "poisson:2", "geometric:0.6667", "binomial:3,0.8",
              "binomial:40,0.1", "pmf:0.05,0.1,0.1,0.1,0.08,0.08,0.07,0.06,0.06,0.05,"
              "0.05,0.04,0.04,0.03,0.03,0.02,0.02,0.01,0.005,0.005")


def sequential(walk, split, seed, replicas):
    """The replica loop run one replica after another: the reference."""
    return [walk(np.random.default_rng([seed, r])) for r in range(replicas)]


def replica_of(rng):
    return rng.bit_generator.seed_seq.entropy[1]


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestParallelReplicas:
    """`_estimate` spreads replicas over the usable CPUs; its output must be
    the one-by-one loop's on any CPU count."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("replicas", [2, 3, 17])
    @pytest.mark.parametrize("spec", [*SWEEP_LAWS, "pipes"])
    def test_equals_the_sequential_loop(self, monkeypatch, spec, replicas, cpus):
        def call():
            if spec == "pipes":
                return simulate_pipes(0.8, 2000, replicas, 5)
            law = parse_law(spec)
            return estimate_speed(PercolatedModel(law, (1 / law.mean() + 1) / 2), 2000,
                                  replicas, 5)

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_replica_depths", sequential)
            expected = repr(call())
        set_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        assert repr(call()) == expected
        assert threading.active_count() == threads

    def test_caller_and_helpers_walk_at_once(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        barrier = threading.Barrier(3, timeout=10)
        walkers = set()

        def walk(rng):
            walkers.add(threading.current_thread())
            if replica_of(rng) < 3:
                barrier.wait()  # broken unless three replicas run together
            return replica_of(rng)

        assert sim._replica_depths(walk, lambda n: walk, 1, 9) == list(range(9))
        assert threading.main_thread() in walkers and len(walkers) == 3

    def test_every_replica_runs_once_under_stress(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter can
        set_cpus(monkeypatch, 8)
        started = []

        def walk(rng):
            started.append(replica_of(rng))
            return replica_of(rng)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            depths = sim._replica_depths(walk, lambda n: walk, 2, 3000)
        finally:
            sys.setswitchinterval(interval)
        assert depths == list(range(3000))
        assert sorted(started) == list(range(3000))

    def test_lowest_failing_replica_raises_and_stops_the_rest(self, monkeypatch):
        set_cpus(monkeypatch, 3)
        started = []

        def walk(rng):
            r = replica_of(rng)
            started.append(r)
            # replica 5 fails first, while replica 3 is still running
            time.sleep(0.05 if r == 3 else 0.0 if r == 5 else 0.002)
            if r in (3, 5):
                raise SimulationError(f"replica {r}")
            return r

        monkeypatch.setattr(sim, "_walker", lambda new_cluster, horizon: (walk, lambda n: walk))
        threads = threading.active_count()
        with pytest.raises(SimulationError, match="^replica 3$"):
            estimate_speed(binary_model(), 1000, 200, 0)
        assert threading.active_count() == threads
        assert set(range(4)) <= set(started) and max(started) < 20
        with pytest.raises(SimulationError, match="^replica 3$"):
            sequential(walk, None, 0, 200)

    def test_python_walk_runs_on_the_calling_thread(self, monkeypatch):
        # `_walk` holds the interpreter lock, so threads would only add arenas
        set_cpus(monkeypatch, 3)
        with monkeypatch.context() as patch:
            patch.setattr(sim, "_replica_depths", sequential)
            expected = repr(estimate_speed(binary_model(), 1000, 4, 0))
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        walkers = set()
        python_walk = sim._walk

        def walk(*args):
            walkers.add(threading.current_thread())
            return python_walk(*args)

        monkeypatch.setattr(sim, "_walk", walk)
        assert repr(estimate_speed(binary_model(), 1000, 4, 0)) == expected
        assert walkers == {threading.main_thread()}

    @pytest.mark.parametrize("max_nodes", [112000, 1000])
    def test_many_cpus_share_the_node_cap(self, monkeypatch, max_nodes):
        """64 replicas on 64 CPUs: the caps of the walks running at once sum
        to at most max_nodes, and walks past their share (1750 or 15 nodes;
        these walks grow 1606 to 1905) rerun under the whole cap."""
        model = PercolatedModel(parse_law("pmf:0,0,1"), 0.95)

        def call():
            return sim._estimate(lambda: Cluster(model, max_nodes=max_nodes), 2000, 64, 9,
                                 "pmf:0,0,1", 0.95)

        def outcome():
            try:
                return repr(call())
            except SimulationError as exc:
                return str(exc)

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_replica_depths", sequential)
            expected = outcome()
        set_cpus(monkeypatch, 64)
        lock = threading.Lock()
        running, caps, peaks = [], set(), []
        run_kernel = sim._run_kernel

        def spy(kernel, params, rng):
            with lock:
                running.append(params.max_nodes)
                caps.add(params.max_nodes)
                peaks.append(sum(running))
            try:
                return run_kernel(kernel, params, rng)
            finally:
                with lock:
                    running.remove(params.max_nodes)

        monkeypatch.setattr(sim, "_run_kernel", spy)
        assert outcome() == expected
        assert max(peaks) <= max_nodes
        assert caps == {max_nodes // 64, max_nodes}
        if max_nodes == 1000:
            assert expected == "arena capacity 1000 exhausted"


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

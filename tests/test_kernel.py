"""The compiled walk kernel against the Python reference kernel `_walk`.

The compiled kernel draws from numpy's own samplers in `_walk`'s order, so
each replica's final depth, its node count and the generator's position
afterwards must be bit-identical, on laws that reach every numpy sampler
branch the walk uses. The kernel keeps numpy's binomial set-up in one slot
per draw role and, for thinning and colouring, per count below 64, with
one slot shared by larger counts; `poisson:60` at p = 1/2 thins counts on
both sides of that bound and of numpy's switch from inversion to BTPE, and
`poisson:130` colours counts on both sides of it.
"""

import os
import re
import shutil
import stat
import subprocess
import sys
import sysconfig
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import gwspeed
import test_simulate as golden
from gwspeed import FinitePmf, PercolatedModel, estimate_speed, parse_law, run_walk
from gwspeed import _ckernel
from gwspeed import simulate as sim
from gwspeed.simulate import BushSampler, Cluster, PipesCluster, SimulationError

HORIZON = 20000
REPLICAS = 3

# (law, p) and the numpy branches each reaches besides the binomial
# inversion of the thinning: thinning at p > 1/2 runs on 1-p.
LAWS = [
    ("pmf:0,0,1", 0.75),
    ("pmf:0.1,0.2,0.3,0.4", 0.8),
    ("geometric:0.6667", 0.8),  # geometric inversion: 1-a < 1/3
    ("geometric:0.6", 0.9),  # geometric search: 1-a >= 1/3
    ("poisson:2", 0.8),  # Poisson multiplication
    ("poisson:12", 0.5),  # Poisson PTRS: mu >= 10
    ("binomial:3,0.8", 0.5),  # binomial inversion, q > 1/2 through 1-q
    ("binomial:40,0.1", 0.5),
    ("binomial:80,0.9", 0.5),  # BTPE: thinning Binomial(~72, 1/2)
    ("binomial:80,0.9", 0.55),  # BTPE through 1-p
    ("poisson:60", 0.5),  # thinning counts past 60 run BTPE, past 63 share a slot
    ("poisson:130", 0.5),  # colouring counts past 63 share a slot too
]
PIPES_P = [0.6, 0.8, 0.95]  # pipe lengths: geometric search at 0.6, inversion above 2/3


@pytest.fixture(scope="module")
def kernel():
    k = _ckernel.load()
    if k is None:
        pytest.skip("the compiled walk kernel cannot be built here")
    return k


def law_cluster(spec, p, max_nodes=sim.DEFAULT_NODE_CAP):
    model = PercolatedModel(parse_law(spec), p)
    return lambda: Cluster(model, max_nodes=max_nodes)


def pipes_cluster(p, max_nodes=sim.DEFAULT_NODE_CAP):
    skeleton = PercolatedModel(FinitePmf([0, 0, 1]), p)
    return lambda: PipesCluster(skeleton, max_nodes=max_nodes)


def compiled(kernel, cluster, horizon, rng):
    return sim._compiled_walk(kernel, sim._kernel_params(cluster, horizon), rng)


def assert_parity(kernel, new_cluster, horizon=HORIZON, replicas=REPLICAS):
    for r in range(replicas):
        rng_py, rng_c = np.random.default_rng([3, r]), np.random.default_rng([3, r])
        cluster = new_cluster()
        depth = sim._walk(cluster, horizon, rng_py)
        assert compiled(kernel, new_cluster(), horizon, rng_c) == (depth, len(cluster.parent))
        assert rng_c.random() == rng_py.random()


class TestParity:
    @pytest.mark.parametrize("spec,p", LAWS, ids=[f"{s} p={p}" for s, p in LAWS])
    def test_laws(self, kernel, spec, p):
        assert_parity(kernel, law_cluster(spec, p))

    @pytest.mark.parametrize("p", PIPES_P)
    def test_pipes(self, kernel, p):
        assert_parity(kernel, pipes_cluster(p))

    def test_long_walk_grows_arena_and_path(self, kernel):
        # depth about 9e4 and 2.6e5 nodes: the path stack and the columns
        # double from 1024 entries, leave the heap at 2^16 and are remapped
        assert_parity(kernel, law_cluster("pmf:0,0,1", 0.95), horizon=3 * 10**5, replicas=1)


def both_kernels_raise(kernel, new_cluster, horizon=10**4):
    """The messages of the Python and the compiled walk, which must both fail."""
    messages = []
    for walk in (lambda c, rng: sim._walk(c, horizon, rng),
                 lambda c, rng: compiled(kernel, c, horizon, rng)):
        with pytest.raises(SimulationError) as err:
            walk(new_cluster(), np.random.default_rng(0))
        messages.append(str(err.value))
    return messages


class TestErrors:
    def test_node_cap(self, kernel):
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        with pytest.raises(SimulationError, match="^arena capacity 50 exhausted$"):
            run_walk(model, 10**4, np.random.default_rng(0), max_nodes=50)
        assert both_kernels_raise(kernel, law_cluster("pmf:0,0,1", 0.75, 50)) == \
            ["arena capacity 50 exhausted"] * 2

    @pytest.mark.parametrize("max_nodes", [3000, 100000])  # on the heap, then mapped
    def test_node_cap_between_doublings(self, kernel, max_nodes):
        assert both_kernels_raise(kernel, law_cluster("pmf:0,0,1", 0.95, max_nodes),
                                  horizon=2 * 10**5) == [f"arena capacity {max_nodes} exhausted"] * 2

    def test_node_cap_pipes(self, kernel):
        assert both_kernels_raise(kernel, pipes_cluster(0.95, 50)) == \
            ["arena capacity 50 exhausted"] * 2

    def test_green_rejection_cap(self, kernel, monkeypatch):
        monkeypatch.setattr(sim, "MAX_REJECTIONS", 1000)
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        wrong_rho = types.SimpleNamespace(law=model.law, p=model.p, rho=1.0)
        sampler = BushSampler(model)
        assert both_kernels_raise(kernel, lambda: Cluster(wrong_rho, bush_sampler=sampler)) == \
            [sim._GREEN_CAP] * 2

    def test_bush_rejection_cap(self, kernel, monkeypatch):
        monkeypatch.setattr(sim, "MAX_REJECTIONS", 1000)
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        sampler = BushSampler(model)
        sampler.coverage = 0.0
        assert both_kernels_raise(kernel, lambda: Cluster(model, bush_sampler=sampler)) == \
            [sim._BUSH_CAP] * 2

    @pytest.mark.parametrize("horizon,max_nodes", [(2**64 + 5, 100), (2**63, 100),
                                                   (1000, 2**31), (1000, 0)])
    def test_out_of_range_rejected_before_drawing(self, horizon, max_nodes):
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            run_walk(model, horizon, rng, max_nodes=max_nodes)
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("spec", ["poisson:1e19", "binomial:100000000000000000000,0.5"])
    def test_numpy_parameter_errors_unchanged(self, spec):
        model = PercolatedModel(parse_law(spec), 0.5)
        with pytest.raises((ValueError, OverflowError)) as reference:
            sim._walk(Cluster(model), 10, np.random.default_rng(0))
        with pytest.raises(reference.type, match=re.escape(str(reference.value))):
            run_walk(model, 10, np.random.default_rng(0))

    def test_huge_horizon_estimate(self):
        with pytest.raises(ValueError):
            estimate_speed(PercolatedModel(FinitePmf([0, 0, 1]), 0.75), 2**64 + 5, 2, 0)

    def test_walk_holds_the_generator_lock(self):
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        rng = np.random.default_rng(0)
        depths = []
        worker = threading.Thread(target=lambda: depths.append(run_walk(model, 1000, rng)))
        with rng.bit_generator.lock:
            worker.start()
            worker.join(0.2)
            assert worker.is_alive() and not depths
        worker.join(10)
        assert not worker.is_alive()
        assert depths == [run_walk(model, 1000, np.random.default_rng(0))]


class TestBuild:
    def test_import_builds_and_loads_nothing(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
                   PYTHONPATH=str(Path(gwspeed.__file__).parents[1]))
        code = "import sys, gwspeed.cli; print('gwspeed._ckernel' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"
        assert not (tmp_path / "cache").exists()

    def test_fresh_build_is_private_and_complete(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = _ckernel.module_path()
        assert stat.S_IMODE(os.stat(path.parent).st_mode) == 0o700
        try:
            _ckernel._build(path)
        except (OSError, subprocess.SubprocessError) as exc:
            pytest.skip(f"the compiled walk kernel cannot be built here: {exc}")
        assert os.listdir(path.parent) == [path.name]

    def test_key_follows_the_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        before = _ckernel.module_path()
        edited = tmp_path / "_walk.c"
        edited.write_bytes(_ckernel.SOURCE.read_bytes() + b"\n")
        monkeypatch.setattr(_ckernel, "SOURCE", edited)
        assert _ckernel.module_path() != before

    def test_source_compiles_without_warnings(self, tmp_path):
        # at the build's flags, so the optimiser's warnings (-Warray-bounds,
        # -Wmaybe-uninitialized) are checked too
        py_include = sysconfig.get_paths()["include"]
        if shutil.which("gcc") is None or not os.path.isfile(os.path.join(py_include, "Python.h")):
            pytest.skip("no gcc or no Python headers")
        flags = [f for f in _ckernel.CFLAGS if f != "-shared"]
        lint = subprocess.run(["gcc", *flags, "-c", "-Wall", "-Wextra", "-Werror",
                               "-isystem", np.get_include(), "-isystem", py_include,
                               str(_ckernel.SOURCE), "-o", str(tmp_path / "walk.o")],
                              capture_output=True, text=True, timeout=60)
        assert lint.returncode == 0, lint.stderr

    def test_cache_dir_made_private(self, tmp_path, monkeypatch):
        (tmp_path / "gwspeed").mkdir(mode=0o755)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert stat.S_IMODE(os.stat(_ckernel.cache_dir()).st_mode) == 0o700


class TestFallback:
    def test_python_walk_gives_the_golden_outputs(self, monkeypatch):
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        seeded = golden.TestSeededGolden
        seeded().test_simulate_csv()
        seeded().test_pipes_csv()
        for spec in seeded.ESTIMATES:
            seeded().test_estimate_repr(spec)

    def test_failed_build_warns_once(self, tmp_path, monkeypatch):
        def no_compiler(target):
            raise FileNotFoundError("gcc not found")

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_ckernel, "_build", no_compiler)
        model = PercolatedModel(FinitePmf([0, 0, 1]), 0.75)
        _ckernel.load.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="gcc not found"):
                first = run_walk(model, 1000, np.random.default_rng(1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                second = run_walk(model, 1000, np.random.default_rng(1))
        finally:
            _ckernel.load.cache_clear()
        assert first == second == sim._walk(Cluster(model), 1000, np.random.default_rng(1))

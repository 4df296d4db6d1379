"""Monte Carlo ground truth for the analytic speed pipeline.

The infinite percolation cluster is grown lazily with the green/red
construction: green vertices form the backbone (every green expansion
is conditioned on producing at least one green child by rejection),
red vertices head finite bushes drawn from the subcritical bush law.
A simple random walk runs on the lazily expanded cluster and the speed
is estimated as |X_T| / T averaged over independent replicas.

`_walk` over `Cluster` and `PipesCluster` is the readable reference kernel.
`estimate_speed`, `simulate_pipes` and `run_walk` run the same walk in a
compiled kernel (`_walk.c`, built by `_ckernel` on first use) that makes the
same draws from numpy's own samplers in the same order, so its results and
the generator's state afterwards are bit-identical; without a compiler they
fall back to `_walk` with a warning. The compiled replicas of one estimate
run at once, one per usable CPU, with the same result on any number of CPUs.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .offspring import Binomial, FinitePmf, Geometric, Poisson
from .percolation import ModelError, PercolatedModel, bush_pmf_iter

GREEN = 0
RED = 1
PIPE = 2

MAX_REJECTIONS = 10**7
DEFAULT_NODE_CAP = 10**8
_UNIFORM_BLOCK = 8192
# the compiled arena indexes nodes with int32
_INDEX_MAX = 2**31 - 1
_INT64_MAX = 2**63 - 1
# numpy's largest Poisson mean
_POISSON_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10

_GREEN_CAP = "green expansion exceeded the rejection cap (rho off?)"
_BUSH_CAP = "bush sampler exceeded the rejection cap"
# law kinds and status codes of `_walk.c`
_KERNEL_LAWS = {FinitePmf: 0, Geometric: 1, Poisson: 2, Binomial: 3}
_KERNEL_PIPES = 4
_STATUS_NODE_CAP, _STATUS_GREEN_CAP, _STATUS_BUSH_CAP, _STATUS_NO_MEMORY = 1, 2, 3, 4


class SimulationError(RuntimeError):
    """Rejection cap or arena capacity exhausted."""


def _node_cap(max_nodes: int) -> str:
    return f"arena capacity {max_nodes} exhausted"


@dataclass(frozen=True)
class WalkEstimate:
    """Monte Carlo speed estimate over independent replicas."""

    speed_hat: float
    std_error: float
    replicas: int
    horizon: int
    seed: int
    law_spec: str
    p: float


class BushSampler:
    """Inverse-CDF sampler for the bush offspring law phat.

    The table covers all but the 1e-13 truncated tail; a uniform that
    lands past the covered mass is resampled.
    """

    def __init__(self, model: PercolatedModel):
        cdf = []
        cum = 0.0
        for _, pk in bush_pmf_iter(model):
            cum += pk
            cdf.append(cum)
        self.cdf = cdf
        self.coverage = cum

    def sample(self, rng: np.random.Generator) -> int:
        for _ in range(MAX_REJECTIONS):
            u = rng.random()
            if u < self.coverage:
                # linear scan: bush laws concentrate near 0
                for k, c in enumerate(self.cdf):
                    if u < c:
                        return k
        raise SimulationError(_BUSH_CAP)


class Cluster:
    """Append-only flat arena of lazily expanded cluster nodes.

    An expansion creates all of a node's children at once, so they are
    contiguous: the children of v are first[v] .. first[v]+nchild[v]-1,
    and nchild[v] < 0 means v is not expanded yet.
    """

    __slots__ = ("model", "bush_sampler", "max_nodes",
                 "parent", "depth", "color", "first", "nchild")

    def __init__(self, model: PercolatedModel, bush_sampler: BushSampler | None = None,
                 max_nodes: int = DEFAULT_NODE_CAP):
        self.model = model
        if bush_sampler is None and model.rho > 0.0:
            bush_sampler = BushSampler(model)
        self.bush_sampler = bush_sampler
        self.max_nodes = max_nodes
        # root: green, no parent, depth 0, not expanded
        self.parent = [-1]
        self.depth = [0]
        self.color = [GREEN]
        self.first = [0]
        self.nchild = [-1]

    def _reserve(self, n: int) -> int:
        """Index of the next node, once n more nodes fit under the cap."""
        start = len(self.parent)
        if start + n > self.max_nodes:
            raise SimulationError(_node_cap(self.max_nodes))
        return start

    def _attach(self, node: int, greens: int, reds: int, rng: np.random.Generator) -> range:
        """Append `greens` green then `reds` red unexpanded children of node;
        `rng` serves subclasses that grow more nodes here."""
        n = greens + reds
        start = self._reserve(n)
        self.parent.extend([node] * n)
        self.depth.extend([self.depth[node] + 1] * n)
        self.color.extend([GREEN] * greens + [RED] * reds)
        self.first.extend([0] * n)
        self.nchild.extend([-1] * n)
        self.first[node] = start
        self.nchild[node] = n
        return range(start, start + n)

    def _thinned_count(self, rng: np.random.Generator) -> int:
        """Number of open edges below a vertex: a p-thinned law draw."""
        k = self.model.law.sample(rng)
        return int(rng.binomial(k, self.model.p)) if k else 0

    def expand_green(self, node: int, rng: np.random.Generator) -> range:
        """Attach children per the thinned law, colored green w.p. 1-rho,
        rejecting whole assignments until at least one green child exists."""
        if self.color[node] != GREEN or self.nchild[node] >= 0:
            raise SimulationError("expand_green needs an unexpanded green node")
        rho = self.model.rho
        for _ in range(MAX_REJECTIONS):
            c = self._thinned_count(rng)
            if c == 0:
                continue
            greens = int(rng.binomial(c, 1.0 - rho)) if rho > 0.0 else c
            if greens == 0:
                continue
            return self._attach(node, greens, c - greens, rng)
        raise SimulationError(_GREEN_CAP)

    def expand_red(self, node: int, rng: np.random.Generator) -> range:
        """Attach an all-red batch of children drawn from the bush law."""
        if self.color[node] != RED or self.nchild[node] >= 0:
            raise SimulationError("expand_red needs an unexpanded red node")
        if self.bush_sampler is None:
            raise ModelError("rho = 0: red vertices cannot exist")
        return self._attach(node, 0, self.bush_sampler.sample(rng), rng)

    def expand(self, node: int, rng: np.random.Generator) -> range:
        if self.color[node] == GREEN:
            return self.expand_green(node, rng)
        return self.expand_red(node, rng)


class PipesCluster(Cluster):
    """Binary-tree skeleton cluster where every skeleton vertex carries a
    pipe: a dangling path of geometric(1-p) many open edges.

    The pipe's first node follows the skeleton children, so it is the
    last child of its vertex; pipe node i has the single child i+1 and the
    last pipe node has none. Pipe nodes are built expanded.
    """

    __slots__ = ()

    def _thinned_count(self, rng: np.random.Generator) -> int:
        return int(rng.binomial(2, self.model.p))

    def _attach(self, node: int, greens: int, reds: int, rng: np.random.Generator) -> range:
        kids = super()._attach(node, greens, reds, rng)
        # pipe length: consecutive open edges before the first closed one,
        # P(L = l) = p^l (1-p), mean p/(1-p)
        length = int(rng.geometric(1.0 - self.model.p)) - 1
        if length == 0:
            return kids
        start = self._reserve(length)
        end = start + length
        self.parent.append(node)
        self.parent.extend(range(start, end - 1))
        self.depth.extend(range(self.depth[node] + 1, self.depth[node] + 1 + length))
        self.color.extend([PIPE] * length)
        self.first.extend(range(start + 1, end + 1))
        self.nchild.extend([1] * (length - 1))
        self.nchild.append(0)
        self.nchild[node] += 1
        return range(kids.start, kids.stop + 1)


def run_walk(model: PercolatedModel, horizon: int, rng: np.random.Generator,
             max_nodes: int = DEFAULT_NODE_CAP) -> int:
    """Walk `horizon` steps from the root of a fresh cluster; return |X_T|."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return _walker(lambda: Cluster(model, max_nodes=max_nodes), horizon)[0](rng)


def _walker(new_cluster, horizon: int):
    """(walk, split), where walk is rng -> |X_T| of a `horizon`-step walk on
    a fresh new_cluster().

    walk runs the compiled kernel, or `_walk` when the kernel cannot be built
    or does not implement the cluster or its law; both make the same draws.
    For the compiled kernel, split(n) is walk for n replicas running at once:
    it walks under 1/n of the node cap and returns None where that share runs
    out. For `_walk`, which holds the interpreter lock throughout, split is
    None.
    """
    from . import _ckernel  # imported on first walk: `import gwspeed` loads no kernel

    if horizon > _INT64_MAX:
        raise ValueError(f"horizon must be < 2**63, got {horizon}")
    prototype = new_cluster()
    if not 1 <= prototype.max_nodes <= _INDEX_MAX:
        raise ValueError(f"max_nodes must be in [1, 2**31 - 1], got {prototype.max_nodes}")
    kernel = _ckernel.load()
    params = _kernel_params(prototype, horizon) if kernel is not None else None
    if params is None:
        return (lambda rng: _walk(new_cluster(), horizon, rng)), None

    def split(n):
        share = _kernel_params(prototype, horizon)
        share.max_nodes = max(1, share.max_nodes // n)

        def walk_share(rng):
            status, depth, _ = _run_kernel(kernel, share, rng)
            if status == _STATUS_NODE_CAP:
                return None
            _check(status, share)
            return depth
        return walk_share

    return (lambda rng: _compiled_walk(kernel, params, rng)[0]), split


def _kernel_params(cluster: Cluster, horizon: int):
    """The compiled kernel's arguments for a walk on a fresh copy of
    `cluster`, or None for a cluster or law it does not implement, or law
    parameters numpy would reject (numpy then raises its own error). The
    kernel only reads them, so replicas running at once share one."""
    from ._ckernel import WalkParams, doubles

    model, law, sampler = cluster.model, cluster.model.law, cluster.bush_sampler
    if type(cluster) is PipesCluster:
        kind = _KERNEL_PIPES
    elif type(cluster) is Cluster and type(law) in _KERNEL_LAWS:
        kind = _KERNEL_LAWS[type(law)]
    else:
        return None
    params = WalkParams(law=kind, p=model.p, rho=model.rho, max_rejections=MAX_REJECTIONS,
                        max_nodes=cluster.max_nodes, horizon=horizon)
    if isinstance(law, FinitePmf):
        params.n, params.weights = len(law.weights), doubles(law.weights)
    elif isinstance(law, Geometric):
        params.a = law.a
    elif isinstance(law, Poisson):
        if law.mu > _POISSON_LAM_MAX:
            return None
        params.a = law.mu
    else:
        if law.n > _INT64_MAX:
            return None
        params.n, params.a = law.n, law.q
    if sampler is not None:
        params.cdf, params.ncdf = doubles(sampler.cdf), len(sampler.cdf)
        params.coverage = sampler.coverage
    return params


def _compiled_walk(kernel, params, rng: np.random.Generator) -> tuple[int, int]:
    """(final depth, nodes grown) of the compiled walk, drawing from `rng`."""
    status, depth, nodes = _run_kernel(kernel, params, rng)
    _check(status, params)
    return depth, nodes


def _run_kernel(kernel, params, rng: np.random.Generator) -> tuple[int, int, int]:
    """(status, final depth, nodes grown) of one call to the kernel."""
    out = (ctypes.c_int64 * 2)()
    bit_generator = rng.bit_generator
    with bit_generator.lock:
        status = kernel(bit_generator.ctypes.bit_generator, ctypes.byref(params), out)
    return status, out[0], out[1]


def _check(status: int, params) -> None:
    """Raise the error of a kernel status other than success."""
    if status == _STATUS_NODE_CAP:
        raise SimulationError(_node_cap(params.max_nodes))
    if status == _STATUS_GREEN_CAP:
        raise SimulationError(_GREEN_CAP)
    if status == _STATUS_BUSH_CAP:
        raise SimulationError(_BUSH_CAP)
    if status == _STATUS_NO_MEMORY:
        raise MemoryError("compiled walk arena")


def _walk(cluster: Cluster, horizon: int, rng: np.random.Generator,
          path: list[int] | None = None) -> int:
    """Walk `horizon` steps from the root, expanding nodes on first visit;
    return the final depth, appending each visited node to `path` if given.

    One uniform per step, drawn in blocks of _UNIFORM_BLOCK; a node with
    n children goes to its parent when int(u (n+1)) is 0 and to child
    int(u (n+1)) - 1 otherwise, and the root goes to child int(u n).
    """
    parent = cluster.parent
    first = cluster.first
    nchild = cluster.nchild
    expand = cluster.expand

    buf = rng.random(_UNIFORM_BLOCK).tolist()
    pos = 0
    cur = 0
    for _ in range(horizon):
        n = nchild[cur]
        if n < 0:
            n = len(expand(cur, rng))
        if pos == _UNIFORM_BLOCK:
            buf = rng.random(_UNIFORM_BLOCK).tolist()
            pos = 0
        u = buf[pos]
        pos += 1
        if cur:
            j = int(u * (n + 1))
            cur = parent[cur] if j == 0 else first[cur] + j - 1
        else:
            cur = first[0] + int(u * n)
        if path is not None:
            path.append(cur)
    return cluster.depth[cur]


def walk_path(cluster: Cluster, horizon: int, rng: np.random.Generator) -> list[int]:
    """The visited node ids, root included. Consumes randomness exactly
    as run_walk, so the last node's depth is run_walk's result."""
    path = [0]
    _walk(cluster, horizon, rng, path)
    return path


def _replica_depths(walk, split, seed: int, replicas: int) -> list[int]:
    """[walk(default_rng([seed, r])) for r in range(replicas)].

    With `split` (see _walker) the replicas run at once on one thread per
    usable CPU, the caller's included (the kernel builds only on Linux, which
    has os.sched_getaffinity). Threads take replica indices in order
    from one counter and store each depth at its index. Running at once, each
    replica walks under its share of the node cap, so a call holds no more
    arena than one replica under the whole cap. A replica that outgrows its
    share walks again afterwards, alone, under the whole cap, on a fresh
    generator, so its depth is the one the whole cap gives. The list does not
    depend on the thread count. After a replica fails no new one starts, and
    the error of the lowest failing replica is raised: every lower replica has
    run, so it is the error the replicas run one by one would raise.
    """
    workers = 1 if split is None else min(replicas, len(os.sched_getaffinity(0)))
    if workers == 1:
        return [walk(np.random.default_rng([seed, r])) for r in range(replicas)]
    walk_share = split(workers)
    depths = [None] * replicas
    errors = {}
    indices = iter(range(replicas))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                r = None if errors else next(indices, None)
            if r is None:
                return
            try:
                depths[r] = walk_share(np.random.default_rng([seed, r]))
            except BaseException as exc:  # re-raised in the caller below
                with lock:
                    errors[r] = exc

    helpers = [threading.Thread(target=work, name=f"gwspeed-replicas-{i}")
               for i in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        with lock:  # the caller was interrupted between replicas: start no more
            indices = iter(())
        for helper in helpers:
            helper.join()
    for r in range(min(errors, default=replicas)):
        if depths[r] is None:
            depths[r] = walk(np.random.default_rng([seed, r]))
    if errors:
        raise errors[min(errors)]
    return depths


def _estimate(new_cluster, horizon: int, replicas: int, seed: int,
              law_spec: str, p: float) -> WalkEstimate:
    """Mean and standard error of |X_T|/T over independent replicas.

    Replica r walks on a fresh cluster from new_cluster() with its own rng
    sub-stream default_rng([seed, r]), so any replica reproduces in isolation
    and the estimate does not depend on how many replicas run at once (see
    _replica_depths). The kernel's WalkParams are shared, read-only, by the
    replicas running at once.
    """
    if horizon < 10**3:
        raise ValueError(f"horizon must be >= 1000, got {horizon}")
    if replicas < 2:
        raise ValueError(f"replicas must be >= 2, got {replicas}")
    walk, split = _walker(new_cluster, horizon)
    speeds = np.array([depth / horizon for depth in _replica_depths(walk, split, seed, replicas)])
    return WalkEstimate(
        speed_hat=float(speeds.mean()),
        std_error=float(speeds.std(ddof=1) / math.sqrt(replicas)),
        replicas=replicas,
        horizon=horizon,
        seed=seed,
        law_spec=law_spec,
        p=p,
    )


def estimate_speed(model: PercolatedModel, horizon: int, replicas: int,
                   seed: int) -> WalkEstimate:
    """Monte Carlo speed on the percolation cluster of `model` (see _estimate)."""
    sampler = BushSampler(model) if model.rho > 0.0 else None
    return _estimate(lambda: Cluster(model, bush_sampler=sampler), horizon, replicas,
                     seed, model.law.spec_string(), model.p)


def simulate_pipes(p: float, horizon: int, replicas: int, seed: int) -> WalkEstimate:
    """Monte Carlo speed on the percolated binary tree with pipes."""
    if not 0.5 < p < 1.0:
        raise ModelError(f"pipes simulation needs p in (1/2, 1), got {p}")
    skeleton = PercolatedModel(FinitePmf([0.0, 0.0, 1.0]), p)
    sampler = BushSampler(skeleton)
    return _estimate(lambda: PipesCluster(skeleton, bush_sampler=sampler), horizon,
                     replicas, seed, "pipes", p)

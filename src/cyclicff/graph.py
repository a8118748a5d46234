"""Directed synapse topologies and the five graph generators.

Chain / cycle / complete are deterministic constructions; Watts-Strogatz and
Barabasi-Albert build an undirected graph first and every undirected edge is
then expanded into both directed synapses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import make_rng

KINDS = ("chain", "cycle", "complete", "ws", "ba")


@dataclass(frozen=True)
class Topology:
    """Directed graph over n_neurons; synapses sorted by (dst, src)."""

    n_neurons: int
    synapses: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_neurons < 1:
            raise ValueError("Topology: need at least one neuron")
        seen = set()
        for src, dst in self.synapses:
            if not (0 <= src < self.n_neurons and 0 <= dst < self.n_neurons):
                raise ValueError(f"Topology: synapse ({src},{dst}) out of range")
            if src == dst:
                raise ValueError(f"Topology: self-loop on neuron {src}")
            if (src, dst) in seen:
                raise ValueError(f"Topology: duplicate synapse ({src},{dst})")
            seen.add((src, dst))
        canon = tuple(sorted(self.synapses, key=lambda e: (e[1], e[0])))
        object.__setattr__(self, "synapses", canon)


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    ws_k: int = 2
    ws_p: float = 0.3
    ba_m: int = 2
    seed: int = 0

    def validate(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("generator: n must be >= 1")
        if self.kind == "ws":
            if self.ws_k % 2 != 0 or not (0 < self.ws_k < self.n):
                raise ValueError("ws: k must be even and 0 < k < n")
            if not (0.0 <= self.ws_p <= 1.0):
                raise ValueError("ws: p must be in [0, 1]")
        if self.kind == "ba" and not (1 <= self.ba_m < self.n):
            raise ValueError("ba: need 1 <= m < n")


def _ws_undirected(n: int, k: int, p: float, rng) -> set[frozenset]:
    # Ring lattice: each node linked to k/2 neighbours on each side, then each
    # lattice edge rewired with probability p (keeping the source endpoint).
    edges = set()
    for u in range(n):
        for i in range(1, k // 2 + 1):
            edges.add(frozenset((u, (u + i) % n)))
    for u in range(n):
        for i in range(1, k // 2 + 1):
            v = (u + i) % n
            if frozenset((u, v)) in edges and rng.random() < p:
                candidates = [w for w in range(n)
                              if w != u and frozenset((u, w)) not in edges]
                if candidates:
                    w = candidates[rng.integers(len(candidates))]
                    edges.remove(frozenset((u, v)))
                    edges.add(frozenset((u, w)))
    return edges


def _ba_undirected(n: int, m: int, rng) -> set[frozenset]:
    # Seed graph: complete graph on the first m nodes. Each new node attaches
    # to m distinct existing nodes, sampled proportionally to degree via the
    # repeated-endpoints trick.
    edges = set()
    repeated = []
    for u in range(m):
        for v in range(u + 1, m):
            edges.add(frozenset((u, v)))
            repeated += [u, v]
    if m == 1:
        repeated = [0]
    for u in range(m, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[rng.integers(len(repeated))])
        for v in sorted(targets):
            edges.add(frozenset((u, v)))
            repeated += [u, v]
    return edges


def ba_edge_count(n: int, m: int) -> int:
    """Undirected edge count implied by the complete-seed BA construction."""
    return m * (m - 1) // 2 + (n - m) * m


def generate(spec: GeneratorSpec) -> Topology:
    spec.validate()
    n = spec.n
    if spec.kind == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif spec.kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 1:
            edges.append((n - 1, 0))
    elif spec.kind == "complete":
        edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        rng = make_rng(spec.seed, "graph")
        if spec.kind == "ws":
            undirected = _ws_undirected(n, spec.ws_k, spec.ws_p, rng)
        else:
            undirected = _ba_undirected(n, spec.ba_m, rng)
        edges = []
        for e in undirected:
            u, v = sorted(e)
            edges += [(u, v), (v, u)]
    return Topology(n_neurons=n, synapses=tuple(edges))


def predecessors(t: Topology, j: int) -> list[int]:
    """Ascending list of i with a synapse i -> j."""
    if not (0 <= j < t.n_neurons):
        raise ValueError(f"predecessors: neuron index {j} out of range")
    return sorted(src for src, dst in t.synapses if dst == j)


def has_cycle(t: Topology) -> bool:
    """Kahn's test: peel off neurons whose in-degree has dropped to 0; the
    graph is cyclic if and only if some neuron is never peeled."""
    succ = [[] for _ in range(t.n_neurons)]
    indeg = [0] * t.n_neurons
    for src, dst in t.synapses:
        succ[src].append(dst)
        indeg[dst] += 1
    peeled = [i for i in range(t.n_neurons) if indeg[i] == 0]
    for i in peeled:  # grows while it is walked
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                peeled.append(j)
    return len(peeled) < t.n_neurons


def to_edge_list(t: Topology) -> str:
    """Text serialization: first line "n <count>", then one "src dst" per line."""
    lines = [f"n {t.n_neurons}"]
    lines += [f"{src} {dst}" for src, dst in t.synapses]
    return "\n".join(lines) + "\n"

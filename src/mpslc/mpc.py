"""Simulated bulk-synchronous runtime with space and round accounting.

Machines are logical: jobs execute locally but every round records how many
machines the greedy packing used, the peak words on any machine, and the
message volume. Word model: one word holds one number or one id, so an
edge is 3 words, a labeled point is d + 2 words, and a sort item is
its key's words plus one for its id.

Job packing follows the rule that a new machine starts only when no
existing machine has at least 2s/3 space available, which caps stored
inputs at 2s/3 per machine and leaves s/3 of working space, and uses at
most 3S/s + 1 machines for S total input words. A level round is
accounted from its per-cell job sizes alone: the merge pass over all
cells runs in `unitstep`, outside this module, and concurrent sorts from
their item count and key lengths while the caller orders the items.
Boruvka and connectivity are likewise accounted by phase from the edge
counts of one `core.spanning_forest` call. Edges travel as `EDGE` record
arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import CapacityError, InputError, edge_order, spanning_forest


class MpcContractError(RuntimeError):
    """A simulated run violated its declared space or round contract."""


# the edge format: one record per edge, its two vertex ids and its weight
EDGE = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def edge_array(u, v, w) -> np.ndarray:
    """The edges (u[k], v[k], w[k]) as one EDGE record array."""
    out = np.empty(len(u), dtype=EDGE)
    out["u"], out["v"], out["w"] = u, v, w
    return out


def edge_records(edges) -> np.ndarray:
    """`edges` as an EDGE record array: an array as it is, any other
    iterable as one (u, v, w) tuple per edge."""
    return np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=EDGE)


def _refuse(u, v, bad, what: str) -> None:
    """Raise InputError naming the first edge (u, v) where `bad` holds."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InputError(f"edge ({u[i]},{v[i]}) {what}")


@dataclass(frozen=True)
class MpcConfig:
    """Per-machine word budget."""

    space_s: int

    def __post_init__(self):
        if self.space_s < 16:
            raise InputError("space_s must be at least 16 words")

    @classmethod
    def auto(cls, n_points: int, dim: int) -> "MpcConfig":
        """Budget wide enough that a whole-input job fits in s/3 words."""
        return cls(space_s=max(1024, 4 * max(1, n_points) * (dim + 2)))


@dataclass
class RoundStats:
    machines_used: int
    max_words_on_any_machine: int
    total_messages_words: int
    input_words: int = 0
    kind: str = "round"
    segment: int = 0


@dataclass
class MpcTrace:
    """Per-round execution record; the testable contract of a simulated run."""

    per_round: list = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    def append(self, stats: RoundStats) -> None:
        self.per_round.append(stats)

    def max_words(self) -> int:
        return max((r.max_words_on_any_machine for r in self.per_round), default=0)

    def add_trace(self, other: "MpcTrace") -> None:
        """Sequential composition; the added rounds get fresh segment ids."""
        offset = 1 + max((r.segment for r in self.per_round), default=-1)
        for r in other.per_round:
            self.per_round.append(replace(r, segment=r.segment + offset))

    def to_json_lines(self) -> str:
        """One JSON object per round: its index and every RoundStats field."""
        lines = [json.dumps({"round": i, **asdict(r)}, sort_keys=True)
                 for i, r in enumerate(self.per_round)]
        return "\n".join(lines) + ("\n" if lines else "")


def round_bound(n_vertices: int) -> int:
    """Contractual round ceiling for Boruvka and connectivity runs."""
    return 2 * math.ceil(math.log2(max(1, n_vertices))) + 2


def spread(words: int, cfg: MpcConfig) -> tuple[int, int]:
    """(machines, peak words on any machine) of `words` input words dealt
    out s/3 to a machine, the working space of a job."""
    cap = cfg.space_s // 3
    return max(1, math.ceil(words / cap)), min(words, cap)


@dataclass(frozen=True)
class WeightedEdgeList:
    """Graph edges over vertex ids with nonnegative weights: an EDGE record
    array with u < v, strictly ascending by (u, v), so each pair once."""

    n_vertices: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n_vertices < 1:
            raise InputError("graph needs at least one vertex")
        edges = edge_records(self.edges)
        u, v = edges["u"], edges["v"]
        _refuse(u, v, (u < 0) | (u >= v) | (v >= self.n_vertices),
                "out of range or unnormalized")
        _refuse(u, v, np.diff(u * self.n_vertices + v, prepend=-1) <= 0,
                "is a duplicate or out of (u, v) order")
        if np.any(~(edges["w"] >= 0)):
            raise InputError("edge weights must be nonnegative numbers")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def build(cls, n_vertices: int, raw_edges) -> "WeightedEdgeList":
        """Normalize to u < v, drop self-loops and keep the minimum weight
        per vertex pair, the first listed of tied ones."""
        raw = edge_records(raw_edges)
        raw = raw[raw["u"] != raw["v"]]
        u, v = np.sort((raw["u"], raw["v"]), axis=0)
        w = raw["w"]
        # a weight that fails `w >= 0` (negative or NaN) leads its pair, so
        # the constructor sees and rejects it
        order = np.lexsort((w, w >= 0, v, u))
        u, v, w = u[order], v[order], w[order]
        first = np.ones(len(u), dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        return cls(n_vertices=n_vertices, edges=edge_array(u[first], v[first], w[first]))


@dataclass(frozen=True)
class SpanningTree:
    """Acyclic edge set spanning each connected component of its vertex set."""

    n_vertices: int
    edges: tuple

    def __post_init__(self):
        edges = edge_records(self.edges)
        u, v = np.sort((edges["u"], edges["v"]), axis=0)
        _refuse(u, v, (u < 0) | (v >= self.n_vertices),
                f"leaves the vertex range [0, {self.n_vertices})")
        taken, _labels, _phases = spanning_forest(u, v, self.n_vertices)
        _refuse(u, v, ~np.isin(np.arange(len(u)), taken), "closes a cycle")
        order = edge_order(u, v, edges["w"])
        edges = edge_array(u[order], v[order], edges["w"][order])
        object.__setattr__(self, "edges", tuple(edges.tolist()))

    @property
    def n_components(self) -> int:
        return self.n_vertices - len(self.edges)

    def sorted_weights(self) -> np.ndarray:
        return np.asarray([w for _, _, w in self.edges], dtype=np.float64)


def run_level(sizes, cfg: MpcConfig) -> RoundStats:
    """Account one synchronous round of independent per-cell jobs.

    `sizes` holds each job's input words, in job order; the caller runs
    the jobs itself. Packing is greedy in that order: a machine takes jobs
    until it holds more than s/3 words, then the next machine opens. A job
    whose working space exceeds s/3 is refused: the CapacityError names
    the first such job and carries its index as `job`. A packing beyond
    3S/s + 1 machines for S total words is an MpcContractError.
    """
    s = cfg.space_s
    cap = s // 3
    sizes = np.asarray(sizes, dtype=np.int64)
    over = np.flatnonzero(sizes > cap)
    if len(over):
        i = int(over[0])
        raise CapacityError(
            f"job {i} needs {int(sizes[i])} words of working space, budget allows {cap}", job=i
        )
    cum = np.cumsum(sizes)
    starts = []
    start = 0
    while start < len(sizes):
        starts.append(start)
        base = int(cum[start - 1]) if start else 0
        # the first job that lifts this machine above cap is its last
        start = int(np.searchsorted(cum, base + cap, side="right")) + 1
    machines = len(starts)
    total = int(cum[-1]) if len(cum) else 0
    if machines > 3 * total / s + 1:
        raise MpcContractError(
            f"greedy packing used {machines} machines for {total} words"
        )
    max_words = 0
    if machines:
        ends = np.asarray(starts[1:] + [len(sizes)])
        loads = cum[ends - 1] - np.concatenate(([0], cum[ends[:-1] - 1]))
        max_words = int((loads + np.maximum.reduceat(sizes, starts)).max())
    return RoundStats(machines_used=machines, max_words_on_any_machine=max_words,
                      total_messages_words=total, input_words=total, kind="level")


def _boruvka(g: WeightedEdgeList, cfg: MpcConfig, kind: str):
    """Boruvka over g, accounted by phase: per phase every component takes
    its minimum cross edge under the total order (weight, u, v), merged
    until no cross edge is left. `core.spanning_forest` runs the phases on
    the sorted edges; each phase is accounted as a scatter round of the
    edges and a gather round of the edges it took. Connectivity runs the
    same phases on zero weights and gathers a label per vertex instead of
    the tree.

    Returns (tree edges as EDGE records, labels as minimum member ids, trace).
    """
    weighted = kind == "boruvka"
    s = cfg.space_s
    n = g.n_vertices
    edges = g.edges
    m = len(edges)
    if weighted:
        # the edges ascend by (u, v), so a stable sort by weight orders
        # them by (w, u, v); connectivity keeps the (u, v) order
        edges = edges[np.argsort(edges["w"], kind="stable")]
    taken, labels, phases = spanning_forest(edges["u"], edges["v"], n)
    if np.any(labels[edges["u"]] != labels[edges["v"]]):
        raise MpcContractError("merging phases exhausted with components left")
    tree = edges[taken]
    chunk_edges = max(1, s // 5)
    n_chunks = max(1, math.ceil(m / chunk_edges))
    chunk_words = 5 * min(m, chunk_edges)

    rounds = [RoundStats(machines_used=n_chunks, max_words_on_any_machine=chunk_words,
                         total_messages_words=3 * m, input_words=3 * m, kind=kind)]
    for took in phases:
        cand_words = 3 * took
        rounds.append(RoundStats(machines_used=n_chunks,
                                 max_words_on_any_machine=chunk_words,
                                 total_messages_words=cand_words,
                                 input_words=5 * m, kind=kind))
        rounds.append(RoundStats(*spread(cand_words, cfg), 2 * n, cand_words, kind))
    out_words = 3 * len(tree) if weighted else n
    rounds.append(RoundStats(*spread(out_words, cfg), out_words, out_words, kind))
    trace = MpcTrace(per_round=rounds)
    if trace.rounds > round_bound(n):
        raise MpcContractError(f"{kind} used {trace.rounds} rounds on {n} vertices")
    if trace.max_words() > s:
        raise MpcContractError(f"{kind} exceeded the per-machine space budget")
    return tree, labels, trace


def boruvka_mst(g: WeightedEdgeList, cfg: MpcConfig):
    """Exact minimum spanning forest of g in at most 2*ceil(log2 n)+2 rounds.

    Ties break by (weight, u, v), making the output edge set unique.
    """
    tree, _labels, trace = _boruvka(g, cfg, "boruvka")
    return SpanningTree(n_vertices=g.n_vertices, edges=tree), trace


def connected_components(g: WeightedEdgeList, cfg: MpcConfig):
    """Component labels (minimum member id) in at most 2*ceil(log2 n)+2 rounds."""
    _tree, labels, trace = _boruvka(g, cfg, "connectivity")
    return labels, trace


def distributed_sort(n_items: int, key_words, cfg: MpcConfig) -> MpcTrace:
    """Account concurrent stable sorts of n_items (key, id) items, one per
    entry of `key_words` (a scalar is one sort), in one phase of exactly 4
    rounds (sample, split, exchange, gather); the caller sorts. Machines,
    messages and input words add up over the sorts, and a round's peak is
    the largest of theirs. The split round holds a chunk and 2 words per
    other machine on every machine; the first sort, in the given order,
    that the budget cannot hold is refused as a CapacityError. Sorts of
    one key length cost alike, so each length is costed once, times its
    count."""
    s = cfg.space_s
    key_words = np.atleast_1d(np.asarray(key_words, dtype=np.int64))
    low = int(key_words.min())
    offset = key_words - low
    count = np.bincount(offset)
    length = np.flatnonzero(count)
    count = count[length]
    total = n_items * (length + low + 1)
    machines = np.maximum(1, -(-total // (s // 3)))
    chunk = -(-total // machines)
    splitter_words = 2 * (machines - 1)
    peak = chunk + np.maximum(chunk, splitter_words)
    if np.any(peak > s):
        # each length's peak where the budget refuses it, 0 where not
        refused = np.zeros(int(length[-1]) + 1, dtype=np.int64)
        refused[length] = np.where(peak > s, peak, 0)
        first = refused[offset]
        raise CapacityError(f"sort of {n_items} items needs {int(first[np.argmax(first > 0)])} "
                            f"words on one machine, budget allows {s}")
    m, words, top = int((machines * count).sum()), int((total * count).sum()), int(chunk.max())
    return MpcTrace(per_round=[
        RoundStats(m, top, words, words, "sort"),
        RoundStats(m, int((chunk + splitter_words).max()),
                   int((machines * splitter_words * count).sum()),
                   int((splitter_words * count).sum()), "sort"),
        RoundStats(m, 2 * top, words, words, "sort"),
        RoundStats(m, top, words, words, "sort"),
    ])

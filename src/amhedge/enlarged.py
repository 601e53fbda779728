"""Product of a market model with exercise clocks.

Each shorted American option (and, for super-hedging, the claim itself)
gets one exercise-clock coordinate with values in {0..T}.  The enlarged
information structure is a *forest*: already at time 0 the clock events
"exercised at 0" are known, so there are 2^n time-0 atoms.  An enlarged
node is (base node, status vector) where each status entry is either the
exact exercise time <= t or None for "not yet".  At the horizon every
status is resolved.

Shorted American payoffs become path functionals here: the option sold as
h pays h at the base node the path visits at its clock time.
"""
from __future__ import annotations

import copy
import itertools
from functools import cached_property
from typing import Iterable, Literal

from .errors import ModelFormatError
from .market import MarketModel
from .rationals import Q


class EnlargedNode:
    """A base node and what it knows of the clocks (EnlargedModel.status_at)."""

    __slots__ = ("base", "time", "status")

    def __init__(self, base: str, time: int, status: tuple[int | None, ...]):
        self.base, self.time, self.status = base, time, status

    def __eq__(self, other) -> bool:
        return type(other) is EnlargedNode and (self.base, self.time, self.status) == (
            other.base, other.time, other.status)

    @property
    def label(self) -> str:
        marks = ",".join("*" if s is None else str(s) for s in self.status)
        return f"{self.base}|{marks}" if self.status else self.base


class EnlargedPath:
    """A base path under one clock tuple, as the indices of its enlarged nodes."""

    __slots__ = ("base_index", "clocks", "node_seq")

    def __init__(self, base_index: int, clocks: tuple[int, ...], node_seq: tuple[int, ...]):
        self.base_index, self.clocks, self.node_seq = base_index, clocks, node_seq

    def __eq__(self, other) -> bool:
        return type(other) is EnlargedPath and (self.base_index, self.clocks, self.node_seq) == (
            other.base_index, other.clocks, other.node_seq)

    @property
    def label(self) -> str:
        marks = ",".join(str(t) for t in self.clocks)
        return f"p{self.base_index}" + (f"@{marks}" if self.clocks else "")


class EnlargedModel:
    """Finite enlarged space with its forest of information atoms.

    ``children`` and ``roots`` span the forest of the space's paths, its
    nodes in index order; a copy on some of the paths (``restricted``)
    keeps the node list and cuts the forest.  ``tied_pairs`` lists node
    pairs whose positions every strategy must hold equal; this space has
    none.
    """

    tied_pairs: tuple[tuple[int, int], ...] = ()

    def __init__(self, model: MarketModel, n: int):
        if n not in (model.N, model.N + 1):
            raise ModelFormatError(
                f"n must be N={model.N} (sub-hedging/FTAP) or N+1={model.N + 1} (super-hedging)")
        self.model = model
        self.n = n
        self.horizon = model.tree.horizon
        # the mass of each clock tuple under the uniform reference law;
        # prices, slacks and verdicts hold under any full-support law, which
        # would only pick another arbitrage witness
        self.clock_mass = Q(1, (self.horizon + 1) ** n)

        self.enodes: list[EnlargedNode] = []
        self.epaths: list[EnlargedPath] = []
        index: dict[tuple[str, tuple[int | None, ...]], int] = {}
        children: dict[int, dict[int, None]] = {}
        roots: dict[int, None] = {}

        # each clock tuple's statuses at times 0..T, shared by every base path
        times = range(self.horizon + 1)
        timelines = [(clocks, tuple(self.status_at(clocks, t) for t in times))
                     for clocks in itertools.product(times, repeat=n)]
        for base_index, base_path in enumerate(model.tree.paths):
            for clocks, statuses in timelines:
                seq = []
                for t, key in enumerate(zip(base_path, statuses)):
                    idx = index.get(key)
                    if idx is None:
                        idx = index[key] = len(self.enodes)
                        self.enodes.append(EnlargedNode(key[0], t, key[1]))
                        children[idx] = {}
                    seq.append(idx)
                for a, b in zip(seq, seq[1:]):
                    children[a][b] = None
                roots[seq[0]] = None
                self.epaths.append(EnlargedPath(base_index, clocks, tuple(seq)))
        self.children: dict[int, tuple[int, ...]] = {v: tuple(kids) for v, kids in children.items()}
        self.roots: tuple[int, ...] = tuple(roots)

    def status_at(self, clocks: tuple[int, ...], t: int) -> tuple[int | None, ...]:
        """What a time-t node knows of the clocks: each fired time, else None."""
        return tuple(tk if tk <= t else None for tk in clocks)

    def with_model(self, model: MarketModel) -> "EnlargedModel":
        """This space for a model that differs only in quotes or books.

        The forest depends on the tree and n alone, so the copy shares
        it; path weights are recomputed from ``model``.
        """
        if model.tree is not self.model.tree or model.N != self.model.N:
            raise ValueError("with_model needs the same tree and the same number of shorts")
        other = copy.copy(self)
        other.model = model
        other.__dict__.pop("weights", None)
        return other

    def restricted(self, paths: Iterable[int]) -> "EnlargedModel":
        """This space on ``paths`` alone, in index order and renumbered 0..k-1.

        The roots and children are cut to the sub-forest the paths span,
        which becomes the copy's own forest; the node list, node indices
        and labels are shared with this space, and path weights and keys
        are recomputed.  A space that ties nodes is refused: its tied
        pairs chain the members of a class, which a dropped node would cut.
        """
        keep = sorted(set(paths))
        if not keep:
            raise ValueError("a restricted space needs at least one path")
        if self.tied_pairs:
            raise ValueError("only a space without tied pairs can be restricted")
        other = copy.copy(self)
        for table in ("through", "weights", "path_key"):
            other.__dict__.pop(table, None)
        other.epaths = [self.epaths[p] for p in keep]
        nodes = {v for ep in other.epaths for v in ep.node_seq}
        other.children = {v: tuple(c for c in self.children[v] if c in nodes)
                          for v in sorted(nodes)}
        other.roots = tuple(r for r in self.roots if r in nodes)
        return other

    @cached_property
    def through(self) -> dict[int, list[int]]:
        """Each node of the forest, in index order, with the paths through it."""
        through: dict[int, list[int]] = {v: [] for v in self.children}
        for p, ep in enumerate(self.epaths):
            for v in ep.node_seq:
                through[v].append(p)
        return through

    @cached_property
    def weights(self) -> list[Q]:
        """Each path's weight: its base path's, times the clock mass."""
        return [self.model.path_weight(p.base_index) * self.clock_mass for p in self.epaths]

    @cached_property
    def path_key(self) -> dict[tuple[int, tuple[int, ...]], int]:
        """Each path's index by its base path's index and its clock tuple."""
        return {(p.base_index, p.clocks): i for i, p in enumerate(self.epaths)}

    # -- bookkeeping -----------------------------------------------------

    @property
    def num_paths(self) -> int:
        return len(self.epaths)

    def enode(self, idx: int) -> EnlargedNode:
        return self.enodes[idx]


def enlarge(model: MarketModel, n: int) -> EnlargedModel:
    """Attach n exercise clocks; n = N for sub-hedging/FTAP, N+1 for super-hedging."""
    return EnlargedModel(model, n)


def extend_claim(enl: EnlargedModel, role: Literal["sub", "super"]):
    """Claim seen from the enlarged space of its side.

    sub   -> node-indexed values (it stays an adapted exercise process),
             on the n = N space;
    super -> per-path payoff read off at the last clock coordinate, on
             the n = N + 1 space whose extra clock is the holder's.
    This is the one check of which space a side runs on.
    """
    claim = enl.model.claim
    if claim is None:
        raise ModelFormatError("model has no claim")
    if role not in ("sub", "super"):
        raise ValueError(f"unknown role {role!r}")
    if enl.n != enl.model.N + (role == "super"):
        clocks = "N + 1" if role == "super" else "N"
        raise ModelFormatError(f"the {role}-hedging claim lives on the n = {clocks} space")
    tree = enl.model.tree
    if role == "sub":
        return {idx: claim[node.base] for idx, node in enumerate(enl.enodes)}
    return [claim[tree.paths[p.base_index][p.clocks[-1]]] for p in enl.epaths]

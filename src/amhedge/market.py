"""Finite market models on event trees.

A model is a rooted event tree with horizon T, a d-dimensional stock
process on the nodes, three option books (Europeans and American longs are
buy-only, American shorts are sell-only), an optional claim to price, and
strictly positive reference weights on the root-to-leaf paths.

The JSON schema is documented in the README; all numbers travel as exact
'p/q' strings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .errors import ModelFormatError
from .rationals import ONE, ZERO, Q, rat, rat_str


@dataclass(frozen=True)
class Node:
    id: str
    time: int
    parent: str | None


class EventTree:
    """Rooted tree; paths are identified by their leaf node id."""

    def __init__(self, nodes: list[Node], horizon: int):
        if horizon < 0:
            raise ModelFormatError("horizon must be >= 0")
        self.horizon = horizon
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ModelFormatError(f"duplicate node id {node.id!r}")
            self.nodes[node.id] = node
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise ModelFormatError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0].id
        if self.nodes[self.root].time != 0:
            raise ModelFormatError("root must sit at time 0")
        self.children: dict[str, tuple[str, ...]] = {nid: () for nid in self.nodes}
        for node in nodes:
            if node.parent is None:
                continue
            parent = self.nodes.get(node.parent)
            if parent is None:
                raise ModelFormatError(f"node {node.id!r} references missing parent {node.parent!r}")
            if node.time != parent.time + 1:
                raise ModelFormatError(f"node {node.id!r} is not one period after its parent")
            self.children[node.parent] = self.children[node.parent] + (node.id,)
        for node in nodes:
            if node.time < horizon and not self.children[node.id]:
                raise ModelFormatError(f"non-terminal node {node.id!r} has no children")
            if node.time == horizon and self.children[node.id]:
                raise ModelFormatError(f"terminal node {node.id!r} has children")
            if node.time > horizon:
                raise ModelFormatError(f"node {node.id!r} sits beyond the horizon")
        self.paths: list[tuple[str, ...]] = []
        self._walk(self.root, (self.root,))

    def _walk(self, nid: str, prefix: tuple[str, ...]) -> None:
        kids = self.children[nid]
        if not kids:
            self.paths.append(prefix)
            return
        for kid in kids:
            self._walk(kid, prefix + (kid,))

    @property
    def leaves(self) -> list[str]:
        return [p[-1] for p in self.paths]

    def nodes_at(self, t: int) -> list[str]:
        return [nid for nid, n in self.nodes.items() if n.time == t]


@dataclass
class AdaptedProcess:
    """Node-indexed values; dim >= 1 components per node."""

    dim: int
    values: dict[str, tuple[Q, ...]]

    def at(self, node_id: str) -> tuple[Q, ...]:
        return self.values[node_id]

    def scalar(self, node_id: str) -> Q:
        return self.values[node_id][0]


@dataclass
class TerminalPayoff:
    values: dict[str, Q]

    def at(self, leaf_id: str) -> Q:
        return self.values[leaf_id]


def adapted_gaps(tree: EventTree, proc: AdaptedProcess) -> list[str]:
    missing = [nid for nid in tree.nodes if nid not in proc.values]
    bad_len = [nid for nid, v in proc.values.items() if len(v) != proc.dim]
    unknown = [nid for nid in proc.values if nid not in tree.nodes]
    return missing + [f"{n}(len)" for n in bad_len] + [f"{n}(unknown)" for n in unknown]


@dataclass
class MarketModel:
    tree: EventTree
    stock: AdaptedProcess
    europeans: list[tuple[TerminalPayoff, Q]] = field(default_factory=list)
    americans_long: list[tuple[AdaptedProcess, Q]] = field(default_factory=list)
    americans_short: list[tuple[AdaptedProcess, Q]] = field(default_factory=list)
    claim: AdaptedProcess | None = None
    weights: dict[str, Q] = field(default_factory=dict)
    kernels: dict[str, list[tuple[Q, ...]]] | None = None

    @property
    def L(self) -> int:
        return len(self.europeans)

    @property
    def M(self) -> int:
        return len(self.americans_long)

    @property
    def N(self) -> int:
        return len(self.americans_short)

    def path_weight(self, path_index: int) -> Q:
        return self.weights[self.tree.paths[path_index][-1]]

    def with_prices(self, alphas=None, betas=None, gammas=None) -> "MarketModel":
        """Copy with some quoted prices replaced (used by grid sweeps)."""
        eur = [(p, a) for (p, _), a in zip(self.europeans, alphas)] if alphas is not None \
            else list(self.europeans)
        lng = [(g, b) for (g, _), b in zip(self.americans_long, betas)] if betas is not None \
            else list(self.americans_long)
        sht = [(h, c) for (h, _), c in zip(self.americans_short, gammas)] if gammas is not None \
            else list(self.americans_short)
        return MarketModel(self.tree, self.stock, eur, lng, sht, self.claim,
                           self.weights, self.kernels)

    def shifted_prices(self, eps: Q) -> "MarketModel":
        """Prices moved by eps in the trader-favorable direction."""
        eps = rat(eps)
        return self.with_prices(
            alphas=[a - eps for _, a in self.europeans],
            betas=[b - eps for _, b in self.americans_long],
            gammas=[c + eps for _, c in self.americans_short],
        )


# -- loading / emission ---------------------------------------------------


def _require(data: dict, key: str, where: str) -> Any:
    if key not in data:
        raise ModelFormatError(f"missing {key!r} in {where}")
    return data[key]


def _rat(value: Any, where: str) -> Q:
    """rat() at the model boundary: floats and bad strings are schema errors."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad rational in {where}: {exc}") from exc


def _parse_scalar_process(data: dict, tree: EventTree, where: str) -> AdaptedProcess:
    values = _require(data, "values", where)
    proc = AdaptedProcess(dim=1, values={nid: (_rat(v, where),) for nid, v in values.items()})
    gaps = adapted_gaps(tree, proc)
    if gaps:
        raise ModelFormatError(f"{where} is not adapted: gaps at {', '.join(gaps)}")
    return proc


def load_model(source: str | bytes | dict) -> MarketModel:
    """Parse and fully validate a model file; raises ModelFormatError."""
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")

    horizon = _require(data, "horizon", "model")
    if not isinstance(horizon, int) or isinstance(horizon, bool):
        raise ModelFormatError("horizon must be an integer")
    node_rows = _require(data, "nodes", "model")
    nodes = []
    for row in node_rows:
        nodes.append(Node(id=str(_require(row, "id", "node")),
                          time=_require(row, "time", "node"),
                          parent=row.get("parent")))
    tree = EventTree(nodes, horizon)

    stock_data = _require(data, "stock", "model")
    dim = _require(stock_data, "dim", "stock")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ModelFormatError("stock dim must be a positive integer")
    stock_values = {}
    for nid, vec in _require(stock_data, "values", "stock").items():
        if not isinstance(vec, list):
            raise ModelFormatError(f"stock values at {nid!r} must be a list")
        stock_values[nid] = tuple(_rat(v, f"stock at {nid!r}") for v in vec)
    stock = AdaptedProcess(dim=dim, values=stock_values)
    gaps = adapted_gaps(tree, stock)
    if gaps:
        raise ModelFormatError(f"stock is not adapted: gaps at {', '.join(gaps)}")

    europeans = []
    for i, row in enumerate(data.get("europeans", [])):
        where = f"europeans[{i}]"
        payoff_map = _require(row, "payoff", where)
        leaves = set(tree.leaves)
        payoff = TerminalPayoff({nid: _rat(v, where) for nid, v in payoff_map.items()})
        missing = leaves - set(payoff.values)
        if missing:
            raise ModelFormatError(f"{where} payoff misses leaves {sorted(missing)}")
        europeans.append((payoff, _rat(_require(row, "price", where), f"{where}.price")))

    americans_long = []
    for i, row in enumerate(data.get("americans_long", [])):
        proc = _parse_scalar_process(row, tree, f"americans_long[{i}]")
        where = f"americans_long[{i}]"
        americans_long.append((proc, _rat(_require(row, "price", where), f"{where}.price")))

    americans_short = []
    for i, row in enumerate(data.get("americans_short", [])):
        proc = _parse_scalar_process(row, tree, f"americans_short[{i}]")
        where = f"americans_short[{i}]"
        americans_short.append((proc, _rat(_require(row, "price", where), f"{where}.price")))

    claim = None
    if data.get("claim") is not None:
        claim = _parse_scalar_process(data["claim"], tree, "claim")

    weights_map = _require(data, "weights", "model")
    weights = {}
    total = ZERO
    for leaf in tree.leaves:
        if leaf not in weights_map:
            raise ModelFormatError(f"weights miss path (leaf) {leaf!r}")
        w = _rat(weights_map[leaf], f"weights at {leaf!r}")
        if w <= 0:
            raise ModelFormatError(f"weight at {leaf!r} must be strictly positive")
        weights[leaf] = w
        total += w
    if set(weights_map) - set(tree.leaves):
        raise ModelFormatError("weights reference unknown leaves")
    if total != ONE:
        raise ModelFormatError(f"weights sum to {rat_str(total)}, expected 1/1")

    kernels = None
    if data.get("kernels") is not None:
        kernels = {}
        for nid, rows in data["kernels"].items():
            if nid not in tree.nodes:
                raise ModelFormatError(f"kernels reference unknown node {nid!r}")
            kids = tree.children[nid]
            if not kids:
                raise ModelFormatError(f"kernels given for terminal node {nid!r}")
            if not rows:
                raise ModelFormatError(f"kernel family at {nid!r} is empty")
            vertices = []
            for vec in rows:
                if len(vec) != len(kids):
                    raise ModelFormatError(
                        f"kernel at {nid!r} has {len(vec)} entries for {len(kids)} children")
                vertex = tuple(_rat(v, f"kernels at {nid!r}") for v in vec)
                if any(v < 0 for v in vertex) or sum(vertex, ZERO) != ONE:
                    raise ModelFormatError(f"kernel at {nid!r} is not a distribution")
                vertices.append(vertex)
            kernels[nid] = vertices
        for nid in tree.nodes:
            if tree.children[nid] and nid not in kernels:
                raise ModelFormatError(f"kernels miss non-terminal node {nid!r}")

    return MarketModel(tree=tree, stock=stock, europeans=europeans,
                       americans_long=americans_long, americans_short=americans_short,
                       claim=claim, weights=weights, kernels=kernels)


def emit_model(model: MarketModel) -> dict:
    """Canonical JSON-ready form; load_model(emit_model(m)) round-trips."""
    tree = model.tree
    data: dict[str, Any] = {
        "horizon": tree.horizon,
        "nodes": [{"id": n.id, "time": n.time, "parent": n.parent}
                  for n in tree.nodes.values()],
        "stock": {
            "dim": model.stock.dim,
            "values": {nid: [rat_str(v) for v in vec]
                       for nid, vec in model.stock.values.items()},
        },
        "europeans": [{"payoff": {k: rat_str(v) for k, v in p.values.items()},
                       "price": rat_str(a)} for p, a in model.europeans],
        "americans_long": [{"values": {k: rat_str(v[0]) for k, v in g.values.items()},
                            "price": rat_str(b)} for g, b in model.americans_long],
        "americans_short": [{"values": {k: rat_str(v[0]) for k, v in h.values.items()},
                             "price": rat_str(c)} for h, c in model.americans_short],
        "weights": {leaf: rat_str(w) for leaf, w in model.weights.items()},
    }
    if model.claim is not None:
        data["claim"] = {"values": {k: rat_str(v[0]) for k, v in model.claim.values.items()}}
    if model.kernels is not None:
        data["kernels"] = {nid: [[rat_str(v) for v in vec] for vec in rows]
                           for nid, rows in model.kernels.items()}
    return data

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
from math import lcm
from typing import Any, NamedTuple, Sequence

from .errors import ModelFormatError
from .rationals import ONE, ZERO, Q, over_common, rat, rat_str


class Node:
    """A node of the event tree: its id, its date and its parent's id (None at the root)."""

    __slots__ = ("id", "time", "parent")

    def __init__(self, id: str, time: int, parent: str | None):
        self.id, self.time, self.parent = id, time, parent


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
        # depth-first, children in order, without recursion: deep chains stay safe
        self.paths: list[tuple[str, ...]] = []
        stack = [(self.root,)]
        while stack:
            prefix = stack.pop()
            kids = self.children[prefix[-1]]
            if kids:
                stack.extend(prefix + (kid,) for kid in reversed(kids))
            else:
                self.paths.append(prefix)

    @property
    def leaves(self) -> list[str]:
        return [p[-1] for p in self.paths]


def adapted_gaps(tree: EventTree, values: dict[str, Any]) -> list[str]:
    """The tree's nodes a node-keyed table misses, then its keys the tree lacks."""
    missing = [nid for nid in tree.nodes if nid not in values]
    return missing + [f"{nid}(unknown)" for nid in values if nid not in tree.nodes]


class MarketModel(NamedTuple):
    """Node-keyed tables: payoffs by leaf, other values by node, the stock's a vector.

    Immutable: a changed copy is ``model._replace(kernels=...)``."""

    tree: EventTree
    stock: dict[str, tuple[Q, ...]]
    weights: dict[str, Q]
    europeans: Sequence[tuple[dict[str, Q], Q]] = ()
    americans_long: Sequence[tuple[dict[str, Q], Q]] = ()
    americans_short: Sequence[tuple[dict[str, Q], Q]] = ()
    claim: dict[str, Q] | None = None
    kernels: dict[str, list[tuple[Q, ...]]] | None = None

    @property
    def dim(self) -> int:
        return len(self.stock[self.tree.root])

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

    def base_steps(self) -> tuple[dict[str, tuple[int, ...]], int]:
        """The stock move S(v) - S(parent of v) into each non-root base node v,
        in integers over one denominator: one tuple per base edge, shared by
        every enlarged path over it, for the LP builders (GainLP and the
        martingale rows); the re-checks build their own (stock_moves).
        """
        den = lcm(*(int(x.denominator) for vec in self.stock.values() for x in vec))
        at = {nid: [int(x.numerator) * (den // int(x.denominator)) for x in vec]
              for nid, vec in self.stock.items()}
        return {nid: tuple(b - a for a, b in zip(at[node.parent], at[nid]))
                for nid, node in self.tree.nodes.items() if node.parent is not None}, den

    def stock_moves(self) -> tuple[list[list[tuple[int, int, int]]], int]:
        """Per base path, its nonzero stock moves (t, dim, S_{t+1} - S_t),
        as integer numerators over one denominator (rationals.over_common).

        Built afresh on each call, from the stock alone, for the pathwise
        re-checks of hedges and measures.
        """
        nodes = list(self.tree.nodes)
        dim = self.dim
        (flat,), den = over_common(x for nid in nodes for x in self.stock[nid])
        at = {nid: flat[i * dim:(i + 1) * dim] for i, nid in enumerate(nodes)}
        return [
            [(t, d, y - x) for t in range(len(path) - 1)
             for d, (x, y) in enumerate(zip(at[path[t]], at[path[t + 1]])) if y != x]
            for path in self.tree.paths
        ], den

    def with_prices(self, alphas=None, betas=None, gammas=None) -> "MarketModel":
        """Copy with the given books re-quoted: one quote per option of each.

        The one re-quote of a model; a list of the wrong length raises.
        """
        books = {}
        for name, quotes in (("europeans", alphas), ("americans_long", betas),
                             ("americans_short", gammas)):
            book = getattr(self, name)
            if quotes is not None and len(quotes) != len(book):
                raise ValueError(f"{len(quotes)} quotes for the {len(book)} {name}")
            books[name] = list(book) if quotes is None else [
                (payoff, rat(q)) for (payoff, _), q in zip(book, quotes)]
        return self._replace(**books)

    def shifted_prices(self, eps: Q) -> "MarketModel":
        """Quotes moved by eps in the trader's favour: asks down, bids up."""
        eps = rat(eps)
        return self.with_prices(
            alphas=[a - eps for _, a in self.europeans],
            betas=[b - eps for _, b in self.americans_long],
            gammas=[c + eps for _, c in self.americans_short],
        )


# -- loading / emission ---------------------------------------------------


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string", type(None): "null"}
# the keys each object of the schema may hold, an option's by its book
_KEYS = dict(model={"horizon", "nodes", "stock", "europeans", "americans_long", "americans_short",
                    "claim", "weights", "kernels"}, node={"id", "time", "parent"},
             stock={"dim", "values"}, claim={"values"}, europeans={"payoff", "price"},
             americans_long={"values", "price"}, americans_short={"values", "price"})


def _typed(value: Any, kind: type | tuple[type, ...], where: str) -> Any:
    """value, if it has the JSON type kind (bool is no integer); else a schema error."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and int in kinds):
        named = " or ".join(_KINDS[k] for k in kinds)
        raise ModelFormatError(f"{where} must be {named}")
    return value


def _field(data: Any, key: str, where: str, kind: Any, default: Any = _REQUIRED) -> Any:
    """The one typed lookup of the schema: data[key] in the object ``where``,
    which must hold no key its _KEYS entry lacks (a map, such as kernels, has none)."""
    _typed(data, dict, where)
    known = _KEYS.get(where.split("[")[0], data.keys())
    if not data.keys() <= known:
        raise ModelFormatError(f"unknown key {min(data.keys() - known, key=str)!r} in {where}")
    if key not in data:
        if default is _REQUIRED:
            raise ModelFormatError(f"missing {key!r} in {where}")
        return default
    return _typed(data[key], kind, f"{key!r} in {where}")


def check_kernel_family(tree: EventTree, nid: str, vertices: list[tuple[Q, ...]]) -> None:
    """The vertex set at nid: nonempty, each vertex a distribution over the children."""
    if not vertices:
        raise ModelFormatError(f"kernel family at {nid!r} is empty")
    kids = tree.children[nid]
    for vertex in vertices:
        if len(vertex) != len(kids):
            raise ModelFormatError(
                f"kernel at {nid!r} has {len(vertex)} entries for {len(kids)} children")
        if any(v < 0 for v in vertex) or sum(vertex, ZERO) != ONE:
            raise ModelFormatError(f"kernel at {nid!r} is not a distribution")


def _rat(value: Any, where: str) -> Q:
    """rat() at the model boundary: floats and bad strings are schema errors."""
    try:
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad rational in {where}: {exc}") from exc


def _parse_scalar_process(data: Any, tree: EventTree, where: str) -> dict[str, Q]:
    values = {nid: _rat(v, where) for nid, v in _field(data, "values", where, dict).items()}
    gaps = adapted_gaps(tree, values)
    if gaps:
        raise ModelFormatError(f"{where} is not adapted: gaps at {', '.join(gaps)}")
    return values


def load_model(source: str | bytes | dict) -> MarketModel:
    """Parse and fully validate a model file; raises ModelFormatError."""
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and over-long integer literals
            raise ModelFormatError(f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")

    horizon = _field(data, "horizon", "model", int)
    nodes = [
        Node(id=_field(row, "id", "node", str),
             time=_field(row, "time", "node", int),
             parent=_field(row, "parent", "node", (str, type(None)), None))
        for row in _field(data, "nodes", "model", list)
    ]
    tree = EventTree(nodes, horizon)

    stock_data = _field(data, "stock", "model", dict)
    dim = _field(stock_data, "dim", "stock", int)
    if dim < 1:
        raise ModelFormatError("stock dim must be a positive integer")
    stock = {}
    for nid, vec in _field(stock_data, "values", "stock", dict).items():
        if len(_typed(vec, list, f"stock values at {nid!r}")) != dim:
            raise ModelFormatError(f"stock is not adapted: gaps at {nid}(len)")
        stock[nid] = tuple(_rat(v, f"stock at {nid!r}") for v in vec)
    gaps = adapted_gaps(tree, stock)
    if gaps:
        raise ModelFormatError(f"stock is not adapted: gaps at {', '.join(gaps)}")

    europeans = []
    for i, row in enumerate(_field(data, "europeans", "model", list, [])):
        where = f"europeans[{i}]"
        payoff = {nid: _rat(v, where) for nid, v in _field(row, "payoff", where, dict).items()}
        missing, extra = set(tree.leaves) - set(payoff), set(payoff) - set(tree.leaves)
        if missing:
            raise ModelFormatError(f"{where} payoff misses leaves {sorted(missing)}")
        if extra:
            raise ModelFormatError(f"{where} payoff references non-leaves {sorted(extra)}")
        europeans.append((payoff, _rat(_field(row, "price", where, object), f"{where}.price")))

    books = {}
    for book in ("americans_long", "americans_short"):
        books[book] = []
        for i, row in enumerate(_field(data, book, "model", list, [])):
            where = f"{book}[{i}]"
            proc = _parse_scalar_process(row, tree, where)
            books[book].append((proc, _rat(_field(row, "price", where, object), f"{where}.price")))

    claim_data = _field(data, "claim", "model", (dict, type(None)), None)
    claim = None if claim_data is None else _parse_scalar_process(claim_data, tree, "claim")

    weights_map = _field(data, "weights", "model", dict)
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
    kernel_map = _field(data, "kernels", "model", (dict, type(None)), None)
    if kernel_map is not None:
        kernels = {}
        for nid in kernel_map:
            rows = _field(kernel_map, nid, "kernels", list)
            if nid not in tree.nodes:
                raise ModelFormatError(f"kernels reference unknown node {nid!r}")
            if not tree.children[nid]:
                raise ModelFormatError(f"kernels given for terminal node {nid!r}")
            where = f"kernels at {nid!r}"
            kernels[nid] = [tuple(_rat(v, where) for v in _typed(vec, list, where)) for vec in rows]
            check_kernel_family(tree, nid, kernels[nid])
        for nid in tree.nodes:
            if tree.children[nid] and nid not in kernels:
                raise ModelFormatError(f"kernels miss non-terminal node {nid!r}")

    return MarketModel(tree=tree, stock=stock, europeans=europeans, **books,
                       claim=claim, weights=weights, kernels=kernels)


def emit_model(model: MarketModel) -> dict:
    """Canonical JSON-ready form; load_model(emit_model(m)) round-trips."""
    tree = model.tree
    data: dict[str, Any] = {
        "horizon": tree.horizon,
        "nodes": [{"id": n.id, "time": n.time, "parent": n.parent}
                  for n in tree.nodes.values()],
        "stock": {
            "dim": model.dim,
            "values": {nid: [rat_str(v) for v in vec] for nid, vec in model.stock.items()},
        },
        "europeans": [{"payoff": {k: rat_str(v) for k, v in f.items()},
                       "price": rat_str(a)} for f, a in model.europeans],
        "americans_long": [{"values": {k: rat_str(v) for k, v in g.items()},
                            "price": rat_str(b)} for g, b in model.americans_long],
        "americans_short": [{"values": {k: rat_str(v) for k, v in h.items()},
                             "price": rat_str(c)} for h, c in model.americans_short],
        "weights": {leaf: rat_str(w) for leaf, w in model.weights.items()},
    }
    if model.claim is not None:
        data["claim"] = {"values": {k: rat_str(v) for k, v in model.claim.items()}}
    if model.kernels is not None:
        data["kernels"] = {nid: [[rat_str(v) for v in vec] for vec in rows]
                           for nid, rows in model.kernels.items()}
    return data

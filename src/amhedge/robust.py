"""Model uncertainty: kernel families and the quasi-sure space.

Uncertainty is a finite set of one-step transition laws (vertices) per
non-terminal node; the scenario class is every product of per-node
selections.  Quasi-sure statements reduce to statements on the union
of the selector supports, so every hedging problem stays an exact LP
over the supported enlarged paths and every dual runs over martingale
measures carried there.  Consistency is one LP as well: mixing the
measures that dominate each selector gives one measure strictly
positive on every supported path, so the quasi-sure FTAP is the
uniform-slack certificate of the classical one on the supported paths
(the finite, product-form case of Bouchard & Nutz, Ann. Appl. Probab.
25 (2015)).  No engine path enumerates selectors; the selectors, their
measures and the quasi-sure checks ``verify`` runs are in ``oracles``.

The family is the market's own ``MarketModel.kernels``; everything here
reads it off the space or market it is given, checked by
check_kernel_family each time.  supported_space is the one place the
quasi-sure restriction is taken: the space cut to its supported paths
(EnlargedModel.restricted).  Quasi-sure prices and the quasi-sure FTAP
are measures.price_with_dual and ftap_certificate on that space.  An
enlarged space does not depend on the kernels, so another family on the
same space is ``enl.with_model(model._replace(kernels=...))``: a market
is an immutable record, copied with ``_replace``.
"""
from __future__ import annotations

import math

from .enlarged import EnlargedModel
from .errors import ModelFormatError
from .market import MarketModel, check_kernel_family
from .rationals import Q


def kernel_family(model: MarketModel) -> dict[str, list[tuple[Q, ...]]]:
    """The market's kernel family in node order (time, then id), every vertex set checked."""
    tree = model.tree
    if model.kernels is None:
        raise ModelFormatError("no kernel family given")
    internal = sorted((nid for nid in tree.nodes if tree.children[nid]),
                      key=lambda nid: (tree.nodes[nid].time, nid))
    for nid in internal:
        check_kernel_family(tree, nid, model.kernels.get(nid, []))
    return {nid: model.kernels[nid] for nid in internal}


def supported_paths(enl: EnlargedModel) -> list[int]:
    """Enlarged paths whose base path runs along charged edges only.

    Every vertex is a distribution, so the support always holds a
    complete path; clocks do not matter.
    """
    kids = enl.model.tree.children
    edges = {(nid, kid) for nid, vertices in kernel_family(enl.model).items()
             for vec in vertices for kid, w in zip(kids[nid], vec) if w > 0}
    keep = {idx for idx, path in enumerate(enl.model.tree.paths)
            if all(edge in edges for edge in zip(path, path[1:]))}
    return [p for p, ep in enumerate(enl.epaths) if ep.base_index in keep]


def supported_space(enl: EnlargedModel) -> EnlargedModel:
    """The quasi-sure space: enl restricted to its supported paths, or enl
    itself where the kernels charge every path."""
    paths = supported_paths(enl)
    return enl if len(paths) == enl.num_paths else enl.restricted(paths)


def num_selectors(model: MarketModel) -> int:
    return math.prod(len(vertices) for vertices in kernel_family(model).values())

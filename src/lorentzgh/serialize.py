"""JSON artifact formats.

`dumps` alone spells the extended values: -inf as the string "-inf" and +inf
(distortion sentinels, an unbounded net epsilon) as "inf", since JSON has no
infinities. The `*_to_dict` functions return plain numbers. `build_space`
and `build_fiber` read the strings back through `np.array(..., dtype=float)`,
and scalar fields are read with `float`. Finite values are written in
shortest round-trip decimal (python repr), so load(dump(x)) is bit-exact.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import (DEFAULT_TOL, CoveredFiniteSpace, FiniteLorentzSpace, build_space, covered,
                   integer_values)
from .corr import Correspondence, make_correspondence
from .causet import CausalSet, build_causet
from .errors import ShapeMismatch
from .geometry import (FiniteMetricFiber, ProductGenerator, build_fiber,
                       circle_fiber, product_family, segment_fiber)
from .measured import AtomicMeasure, atomic_measure
from .nets import DiamondNet


def space_to_dict(space: FiniteLorentzSpace) -> dict:
    return {"labels": list(space.labels), "ell": space.ell.tolist()}


def space_from_dict(data: dict, tol: float = DEFAULT_TOL) -> FiniteLorentzSpace:
    return build_space(data["labels"], data["ell"], tol)


def covered_to_dict(cov: CoveredFiniteSpace) -> dict:
    out = space_to_dict(cov.space)
    out["basepoint"] = cov.basepoint
    out["cover"] = [list(level) for level in cov.cover]
    return out


def covered_from_dict(data: dict, tol: float = DEFAULT_TOL) -> CoveredFiniteSpace:
    space = space_from_dict(data, tol)
    return covered(space, int(integer_values(data["basepoint"], "basepoint")), data["cover"])


def net_to_dict(net: DiamondNet) -> dict:
    return {"epsilon": net.epsilon,
            "pairs": [[p, q] for p, q in net.pairs]}


def net_from_dict(data: dict) -> DiamondNet:
    pairs = integer_values(data["pairs"], "net vertices").tolist()
    return DiamondNet(pairs=tuple((p, q) for p, q in pairs),
                      epsilon=float(data["epsilon"]))


def correspondence_to_dict(r: Correspondence) -> dict:
    return {"pairs": [[x, y] for x, y in r.pairs],
            "n_left": r.n_left, "n_right": r.n_right}


def correspondence_from_dict(data: dict) -> Correspondence:
    sizes = integer_values([data["n_left"], data["n_right"]], "correspondence sizes")
    return make_correspondence(data["pairs"], *sizes.tolist())


def fiber_to_dict(fiber: FiniteMetricFiber) -> dict:
    return {"labels": list(fiber.labels), "d": fiber.d.tolist()}


def fiber_from_dict(data: dict) -> FiniteMetricFiber:
    return build_fiber(data["labels"], data["d"])


def measure_to_dict(m: AtomicMeasure, space: FiniteLorentzSpace = None) -> dict:
    if space is None:
        return {"weights": {str(i): w for i, w in m.weights}}
    return {"weights": {space.labels[i]: w for i, w in m.weights}}


def measure_from_dict(data: dict, space: FiniteLorentzSpace = None) -> AtomicMeasure:
    """Weights keyed by the labels of `space`, or else by point index."""
    weights = data["weights"]
    index = {} if space is None else {label: i for i, label in enumerate(space.labels)}
    others = [key for key in weights if key not in index]
    index.update(zip(others, integer_values(others, "measure atoms").tolist()))
    return atomic_measure({index[key]: float(w) for key, w in weights.items()})


def causet_to_dict(c: CausalSet) -> dict:
    return {"elements": list(c.elements), "covers": [[a, b] for a, b in c.covers]}


def causet_from_dict(data: dict) -> CausalSet:
    return build_causet(data["elements"], data["covers"])


def generator_to_dict(gen: ProductGenerator) -> dict:
    return {"fiber": fiber_to_dict(gen.fiber), "cone_scale": gen.cone_scale,
            "t_range": [gen.t_range[0], gen.t_range[1]]}


def generator_from_dict(data: dict) -> ProductGenerator:
    if "fiber" in data:
        fiber = fiber_from_dict(data["fiber"])
    elif data.get("fiber_kind") in ("circle", "segment"):
        n = int(integer_values(data["fiber_points"], "fiber points"))
        if data["fiber_kind"] == "circle":
            fiber = circle_fiber(n, float(data.get("fiber_radius", 1.0)))
        else:
            fiber = segment_fiber(n, float(data.get("fiber_length", 1.0)))
    else:
        raise ShapeMismatch("generator spec needs a fiber")
    t_range = tuple(float(v) for v in data.get("t_range", (-1.0, 1.0)))
    if "family_index" in data:
        return product_family(fiber, data["family_index"], t_range)
    return ProductGenerator(fiber=fiber, cone_scale=float(data.get("cone_scale", 1)),
                            t_range=t_range)


def dumps(obj: Any) -> str:
    """Deterministic JSON: sorted keys, shortest-round-trip floats, infinities as strings.

    Python float items of a list or tuple (matrix rows) are mapped through
    `_INF_TEXT` in place, without a recursive call each; NaN passes through
    and `json.dumps` rejects it with ValueError.
    """
    return json.dumps(_sanitize(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


_INF_TEXT = {math.inf: "inf", -math.inf: "-inf"}  # the one spelling of the infinities


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_INF_TEXT.get(v, v) if type(v) is float else _sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _INF_TEXT.get(x, x)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj

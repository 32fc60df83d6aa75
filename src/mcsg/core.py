"""Domain model for colored point sets and their spanning graphs.

A problem instance is a set of planar points, each labeled with a nonempty
subset of k primary colors.  An edge set is a *colored spanning graph* (CSG)
when, for every color c, the points carrying c induce a connected subgraph
through the edges whose endpoints share c.  Everything downstream (exact
solvers, approximations, the brute-force oracle, gadget generation) works on
the types defined here.

Colors are 1-based externally and stored as bitmasks internally (bit c-1 set
iff the point carries color c).  Point sets are array-backed so that very
large generated instances stay cheap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

MAX_COLORS = 16

# Relative tolerance used by every cost-equality check in the project.
COST_RTOL = 1e-9


class FormatError(ValueError):
    """Malformed document, invalid parameter, or broken instance invariant."""


class RefusalError(RuntimeError):
    """A solver declined the input because a configured limit was exceeded."""


def over_budget(what: str, need: int, unit: str, limit: int, constant: str, *,
                at_least: bool = False, per: str = "") -> RefusalError:
    """The refusal of an exponential solver: ``what`` needs ``need`` ``unit``
    (``at_least``: a lower bound) against ``limit``, held in the module constant
    ``constant``; ``per`` names what the budget counts per, such as a DP cut."""
    return RefusalError(
        f"{what} needs {'at least ' if at_least else ''}{need} {unit}, {need - limit} over "
        f"the budget of {limit} {unit}{f' per {per}' if per else ''} ({constant})"
    )


# ---------------------------------------------------------------------------
# color sets


def color_masks(color_sets: Iterable[Iterable[int]], k: int = MAX_COLORS) -> list[int]:
    """Encode each collection of 1-based colors as a bitmask.

    Colors must be Python or numpy integers in 1..k (a bool, 1.5 or 2.0 is
    refused, not truncated) and no set may be empty; FormatError otherwise.
    """
    masks = []
    for colors in color_sets:
        m = 0
        try:
            for c in colors:
                if type(c) is not int:
                    if isinstance(c, bool) or not isinstance(c, np.integer):
                        raise FormatError(f"color must be an integer, got {c!r}")
                    c = int(c)
                if not 1 <= c <= k:
                    raise FormatError(f"color out of range: {c} (k={k})")
                m |= 1 << (c - 1)
        except TypeError:  # not iterable
            raise FormatError(f"color set must be a collection, got {colors!r}") from None
        if not m:
            raise FormatError("empty color set on a point")
        masks.append(m)
    return masks


def colors_of(mask: int) -> frozenset[int]:
    """Decode a bitmask into the frozenset of 1-based colors."""
    return frozenset(c + 1 for c in range(int(mask).bit_length()) if mask >> c & 1)


# ---------------------------------------------------------------------------
# instances


class Instance:
    """A colored point set: k primary colors plus n points with color masks.

    Coordinates live in ``xy`` (n x 2 float64) and color sets in ``masks``
    (n uint32 bitmasks).  Both arrays are frozen after construction; all
    higher-level types treat instances as immutable values, and derived
    arrays are kept once built (``_trees`` only by ``mst.class_tree``).
    """

    __slots__ = ("k", "xy", "masks", "_classes", "_trees")

    def __init__(self, k: int, points: Iterable[tuple] = ()):
        """Points as ``(x, y, colors)`` tuples, colors an iterable of 1-based ints."""
        pts = list(points)
        xy = np.array([(x, y) for x, y, _ in pts], dtype=np.float64).reshape(-1, 2)
        masks = np.array(color_masks([colors for _, _, colors in pts]), dtype=np.uint32)
        self._init_arrays(k, xy, masks)

    @classmethod
    def from_arrays(cls, k: int, xy: np.ndarray, masks: np.ndarray) -> "Instance":
        inst = cls.__new__(cls)
        inst._init_arrays(
            k,
            np.array(xy, dtype=np.float64, copy=True),
            np.array(masks, dtype=np.uint32, copy=True),
        )
        return inst

    def _init_arrays(self, k: int, xy: np.ndarray, masks: np.ndarray) -> None:
        if not 1 <= int(k) <= MAX_COLORS:
            raise FormatError(f"k must be in 1..{MAX_COLORS}, got {k}")
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.shape[0] != masks.shape[0]:
            raise FormatError("coordinate/mask arrays are inconsistent")
        if xy.shape[0] < 1:
            raise FormatError("an instance needs at least one point")
        if not np.isfinite(xy).all():
            raise FormatError("point coordinates must be finite")
        if (masks == 0).any():
            raise FormatError("empty color set on a point")
        if (masks >> k).any():
            bad = int(np.flatnonzero(masks >> k)[0])
            raise FormatError(f"color out of range on point {bad} (k={k})")
        # The collinear DP's unique-endpoint rule assumes distinct points.
        # Each row read as one complex128 (x + iy) sorts by x, then y.
        rows = np.sort(np.ascontiguousarray(xy).view(np.complex128).ravel())
        if (rows[1:] == rows[:-1]).any():
            raise FormatError("coincident points are not allowed")
        xy.setflags(write=False)
        masks.setflags(write=False)
        self.k = int(k)
        self.xy = xy
        self.masks = masks
        self._classes = {}
        self._trees = {}

    @property
    def n(self) -> int:
        return self.xy.shape[0]

    def color_class(self, c: int) -> np.ndarray:
        """Indices of the points carrying color c (cached)."""
        if not 1 <= c <= self.k:
            raise FormatError(f"color out of range: {c}")
        got = self._classes.get(c)
        if got is None:
            got = np.flatnonzero(self.masks & np.uint32(1 << (c - 1)))
            got.setflags(write=False)
            self._classes[c] = got
        return got

    def multichromatic(self) -> np.ndarray:
        """Boolean mask of points carrying more than one color."""
        m = self.masks.astype(np.int64)
        return (m & (m - 1)) != 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Instance)
            and self.k == other.k
            and self.xy.shape == other.xy.shape
            and bool(np.all(self.xy == other.xy))
            and bool(np.all(self.masks == other.masks))
        )

    def __repr__(self) -> str:
        return f"Instance(k={self.k}, n={self.n})"


# ---------------------------------------------------------------------------
# edge sets

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY_EDGES.setflags(write=False)


def _edge_ends(edges, n: int | None) -> tuple[np.ndarray, np.ndarray, np.int64 | None, np.int64 | None]:
    """The smaller and the larger endpoint of each edge, as int64 arrays, and
    the least and the greatest endpoint (None without edges), after the
    checks every edge collection gets: no self-loop and, given n, every
    endpoint in 0..n-1.  Nothing is sorted or deduped."""
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    arr = arr.reshape(-1, 2)
    a, b = arr[:, 0], arr[:, 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if not lo.size:
        return lo, hi, None, None
    if (lo == hi).any():
        raise FormatError("self-loop edge")
    base, top = lo.min(), hi.max()
    if n is not None and (base < 0 or top >= n):
        raise FormatError("edge endpoint out of range")
    return lo, hi, base, top


def as_edges(edges, n: int | None = None) -> np.ndarray:
    """Canonicalize an edge collection: int64 (m, 2), a < b, sorted, deduped."""
    if not (edges.size if isinstance(edges, np.ndarray) else edges):
        return _EMPTY_EDGES
    lo, hi, base, top = _edge_ends(edges, n)
    if base is None:
        return _EMPTY_EDGES
    # One key per edge that sorts like (lo, hi), deduped by np.sort plus an
    # adjacent compare: np.unique hashes int keys (numpy 2.4), which is an
    # order of magnitude slower than sorting them.
    span = top - base + 1
    key = np.sort((lo - base) * span + (hi - base))
    if key.size > 1:
        key = key[first_of_runs(key)]
    out = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, span, out=(out[:, 0], out[:, 1]))
    out += base
    return out


def first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the first entry of each run of equal sorted keys."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def merge_edges(*edge_sets) -> np.ndarray:
    """Edge collections stacked into one int64 (m, 2) array, left for
    ``make_solution`` to canonicalise once (``is_csg`` needs no canonical form)."""
    parts = [np.asarray(e if isinstance(e, np.ndarray) else list(e), dtype=np.int64).reshape(-1, 2)
             for e in edge_sets]
    return np.concatenate(parts) if parts else _EMPTY_EDGES


def _cost(inst: Instance, e: np.ndarray) -> float:
    """Total length of the rows of a canonical edge array."""
    d = inst.xy[e[:, 0]] - inst.xy[e[:, 1]]
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def solution_cost(inst: Instance, edges) -> float:
    """Total Euclidean length of an edge set (0 for the empty set)."""
    return _cost(inst, as_edges(edges, inst.n))


def is_csg(inst: Instance, edges) -> bool:
    """Check the colored-spanning-graph property.

    For every color c the subgraph induced by the class of c, using only the
    edges whose endpoints share c, must be connected (vacuous for classes of
    size <= 1).  Edges with an empty shared color set are ignored.  Each class
    is labelled by ``_hook_labels``, in numpy alone.  The edges are checked
    like ``as_edges``' but neither sorted nor deduped, which labelling does
    not need.
    """
    a, b, _, _ = _edge_ends(edges, inst.n)
    shared = inst.masks[a] & inst.masks[b]
    for c in range(1, inst.k + 1):
        members = inst.color_class(c)
        if members.size <= 1:
            continue
        has_c = (shared & np.uint32(1 << (c - 1))) != 0
        if np.count_nonzero(has_c) < members.size - 1:
            return False
        pos = np.full(inst.n, -1, dtype=np.int64)
        pos[members] = np.arange(members.size)
        if _hook_labels(members.size, pos[a[has_c]], pos[b[has_c]])[0].any():
            return False
    return True


def _hook_labels(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Component labels of vertices 0..n-1 under the edges (a[i], b[i]), and
    the number of hook rounds taken.

    Each round hooks every edge's larger root label onto its smaller one, then
    pointer-jumps until every vertex names its root; each vertex ends labelled
    with the least vertex of its component (0 for all iff connected).  A tree
    whose root is below all its neighbours' may wait a round for them to hook
    on; relabelled paths and random trees take fewer than log2 n rounds.
    """
    lab, rounds = np.arange(n), 0
    while True:
        la, lb = lab[a], lab[b]
        if (la == lb).all():
            return lab, rounds
        np.minimum.at(lab, np.maximum(la, lb), np.minimum(la, lb))
        while ((up := lab[lab]) != lab).any():
            lab = up
        rounds += 1


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True, eq=False)
class Solution:
    """An edge set with its cost, producing algorithm, and certified ratio."""

    algorithm: str
    cost: float
    edges: np.ndarray
    ratio_bound: float | None = None

    def edge_set(self) -> set[tuple[int, int]]:
        return {(int(a), int(b)) for a, b in self.edges}


def make_solution(
    inst: Instance, edges, algorithm: str, ratio_bound: float | None = None
) -> Solution:
    e = as_edges(edges, inst.n)
    return Solution(algorithm=algorithm, cost=_cost(inst, e), edges=e, ratio_bound=ratio_bound)


def costs_equal(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(a), abs(b))


def set_partitions(n: int):
    """All partitions of range(n) as restricted-growth strings, in lexicographic order.

    Element i lies in block code[i]; code[0] == 0 and each code[i] is at most
    one more than the largest earlier entry.  There are Bell(n) of them, the
    one-block partition first and the all-singletons partition last.
    """
    code = [0] * n
    top = [0] * n  # top[i] = max(code[: i + 1])
    while True:
        yield tuple(code)
        i = n - 1
        while i > 0 and code[i] > top[i - 1]:
            i -= 1
        if i <= 0:
            return
        code[i] += 1
        top[i] = max(top[i - 1], code[i])
        for j in range(i + 1, n):
            code[j] = 0
            top[j] = top[i]


# ---------------------------------------------------------------------------
# JSON formats


def instance_to_json(inst: Instance) -> str:
    """The JSON instance document, in the bytes ``json.dumps`` writes for
    ``{"k": k, "points": [{"x": x, "y": y, "colors": [...]}, ...]}``: a float
    is its ``repr``, and each distinct color set is formatted once."""
    masks = inst.masks.tolist()
    colors = {m: json.dumps(sorted(colors_of(m))) for m in set(masks)}
    xs, ys = inst.xy.T.tolist()
    points = ", ".join([f'{{"x": {x!r}, "y": {y!r}, "colors": {colors[m]}}}'
                        for x, y, m in zip(xs, ys, masks)])
    return f'{{"k": {inst.k}, "points": [{points}]}}'


def _read_json(source: str | bytes | IO, what: str):
    """The JSON document in text, UTF-8 bytes or a readable file; FormatError
    naming ``what`` if it does not decode or parse."""
    try:
        if hasattr(source, "read"):
            source = source.read()
        return json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"malformed {what} document: {exc}") from exc


def load_instance(source: str | bytes | IO) -> Instance:
    """Parse the JSON instance format, preserving point order.

    Raises FormatError for malformed documents, coordinates that are not
    JSON numbers, colors that are not integers in 1..k, empty color sets,
    bad k, or coincident points.
    """
    doc = _read_json(source, "instance")
    if not isinstance(doc, dict) or "k" not in doc or "points" not in doc:
        raise FormatError("instance document needs 'k' and 'points'")
    k, records = doc["k"], doc["points"]
    if type(k) is not int or not 1 <= k <= MAX_COLORS:
        raise FormatError(f"k must be an integer in 1..{MAX_COLORS}, got {k!r}")
    if not isinstance(records, list):
        raise FormatError("'points' must be a list of point records")
    xs, ys, color_sets = [], [], []
    try:
        for rec in records:
            color_sets.append(rec["colors"])
            xs.append(rec["x"])
            ys.append(rec["y"])
    except (TypeError, KeyError) as exc:
        raise FormatError(f"malformed point record: {rec!r}") from exc
    masks = color_masks(color_sets, k)
    odd = {*map(type, xs), *map(type, ys)} - {int, float}  # bool, str, None, ...
    if odd:
        names = ", ".join(sorted(t.__name__ for t in odd))
        raise FormatError(f"point coordinates must be JSON numbers, got {names}")
    try:
        xy = np.stack([np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)], axis=1)
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"coordinate out of range: {exc}") from exc
    return Instance.from_arrays(k, xy, masks)


def save_instance(inst: Instance, target: str | IO) -> None:
    text = instance_to_json(inst)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def solution_to_json(sol: Solution) -> str:
    doc = {
        "algorithm": sol.algorithm,
        "cost": sol.cost,
        "edges": sol.edges.tolist(),
        "ratio_bound": sol.ratio_bound,
    }
    return json.dumps(doc)


def solution_from_json(source: str | bytes | IO) -> Solution:
    """Parse the JSON solution format; the algorithm must be a JSON string, the
    cost a JSON number, the ratio bound null or a JSON number and the edges a
    list of lists of two JSON integers each (FormatError otherwise)."""
    doc = _read_json(source, "solution")
    try:
        algorithm, cost, edges = doc["algorithm"], doc["cost"], doc["edges"]
        ratio_bound = doc.get("ratio_bound")
        if type(algorithm) is not str:
            raise FormatError(f"solution algorithm must be a JSON string, got {algorithm!r}")
        if type(cost) not in (int, float):  # also rejects true and "2"
            raise FormatError(f"solution cost must be a JSON number, got {cost!r}")
        if ratio_bound is not None and type(ratio_bound) not in (int, float):
            raise FormatError(f"solution ratio bound must be null or a JSON number, "
                              f"got {ratio_bound!r}")
        if type(edges) is not list or any(  # 0.7 or true would truncate
                type(e) is not list or len(e) != 2 or any(type(p) is not int for p in e)
                for e in edges):
            raise FormatError("solution edges must be pairs of JSON integers")
        return Solution(
            algorithm=algorithm,
            cost=float(cost),
            edges=as_edges(edges),
            ratio_bound=None if ratio_bound is None else float(ratio_bound),
        )
    except (TypeError, KeyError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise FormatError(f"malformed solution document: {exc}") from exc


# ---------------------------------------------------------------------------
# generators


def _assign_colors(rng: np.random.Generator, n: int, k: int, fraction: float) -> np.ndarray:
    """Color masks of n generated points, drawn in index order.

    floor(fraction * n) random points get a set of 2..k colors, and when
    n >= k color c is anchored to one random point, which carries it.  The
    rest get one uniform color each; a run of them between two special
    (multichromatic or anchor) points takes one bulk draw, which reads the
    stream exactly as that many scalar draws do.
    """
    if not 0.0 <= fraction <= 1.0:
        raise FormatError(f"multichromatic fraction must be in [0, 1], got {fraction}")
    n_multi = int(math.floor(fraction * n))
    if n_multi > 0 and k < 2:
        raise FormatError("multichromatic points require k >= 2")
    multi = set(rng.permutation(n)[:n_multi].tolist())
    bit_of = [0] + [1 << c for c in range(k)]  # bit_of[c] is color c's mask
    # Anchor every color to one point so all classes are nonempty when n >= k.
    anchor_bit = {}
    if n >= k:
        anchor_bit = dict(zip(rng.permutation(n)[:k].tolist(), bit_of[1:]))
    bit_array = np.array(bit_of, dtype=np.uint32)
    masks = np.empty(n, dtype=np.uint32)
    start = 0
    for i in sorted(multi | anchor_bit.keys()) + [n]:
        if i - start == 1:  # a scalar draw is cheaper than an array of one
            masks[start] = bit_of[rng.integers(1, k + 1)]
        elif i > start:
            masks[start:i] = bit_array[rng.integers(1, k + 1, size=i - start)]
        if i < n:
            bit = anchor_bit.get(i, 0)
            if i in multi:
                size = int(rng.integers(2, k + 1)) - (bit != 0)
                pool = [b for b in bit_of[1:] if b != bit]
                # drawing indices reads the stream as drawing from the pool does
                bit |= sum([pool[j] for j in rng.choice(len(pool), size, replace=False).tolist()])
            masks[i] = bit
        start = i + 1
    return masks


def generate_random(n: int, k: int, multichromatic_fraction: float, seed: int) -> Instance:
    """Seeded random instance: n uniform points in the unit square.

    floor(fraction * n) points get a random color set of size >= 2, the rest a
    random singleton; every primary color is assigned to at least one point
    when n >= k.
    """
    if n < 1 or not 1 <= k <= MAX_COLORS:
        raise FormatError(f"invalid parameters n={n}, k={k}")
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    return Instance.from_arrays(k, xy, _assign_colors(rng, n, k, multichromatic_fraction))


def generate_collinear(n: int, k: int, multichromatic_fraction: float, seed: int) -> Instance:
    """Seeded random collinear instance on the x-axis, strictly increasing x."""
    if n < 1 or not 1 <= k <= MAX_COLORS:
        raise FormatError(f"invalid parameters n={n}, k={k}")
    rng = np.random.default_rng(seed)
    gaps = rng.random(n) + 1e-3
    x = np.cumsum(gaps)
    xy = np.stack([x, np.zeros(n)], axis=1)
    return Instance.from_arrays(k, xy, _assign_colors(rng, n, k, multichromatic_fraction))


def generate_all_black(n: int, seed: int) -> Instance:
    """Random points that all carry every color of a 3-color instance."""
    if n < 1:
        raise FormatError("n must be >= 1")
    rng = np.random.default_rng(seed)
    xy = rng.random((n, 2))
    masks = np.full(n, color_masks([(1, 2, 3)], 3)[0], dtype=np.uint32)
    return Instance.from_arrays(3, xy, masks)

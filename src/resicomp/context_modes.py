"""Context modes: binary dependency matrices between token slices.

A mode is an L x L 0-1 matrix G where G[l, k] = 1 (1-based) means slice
l's entropy model conditions on slice k.  Valid modes are strictly lower
triangular (recoverability) and transitively closed (contextual
inheritance), which together guarantee that any slice is decodable as
soon as its own packet and its context packets arrive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODE_ISC = 0
MODE_LC = 1
MODE_MDC = 2
MODE_SLC = 3
MODE_CUSTOM = 255  # a matrix built as ContextMode directly, not by make_mode

MODE_NAMES = {MODE_ISC: "ISC", MODE_LC: "LC", MODE_MDC: "MDC", MODE_SLC: "SLC"}
MODE_IDS = {name: mode_id for mode_id, name in MODE_NAMES.items()}

DEFAULT_BETA = {MODE_ISC: 0.0, MODE_LC: 1.0, MODE_MDC: 0.5, MODE_SLC: 1.0}
# The one parameter a preset takes, by mode id; the others take none.
MODE_PARAM = {MODE_MDC: "n_d", MODE_SLC: "enhancements"}


@dataclass(frozen=True)
class Violation:
    kind: str  # "recoverability" or "inheritance"
    where: tuple  # offending (l, k) or (l, k, j), 1-based

    def __str__(self):
        return f"{self.kind} at {self.where}"


@dataclass(frozen=True)
class ContextMode:
    l: int
    g: np.ndarray  # (L, L) bool, 0-based indexing internally
    mode_id: int

    def __post_init__(self):
        g = np.asarray(self.g, dtype=bool)
        if g.shape != (self.l, self.l):
            raise ValueError("G must be L x L")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    @property
    def default_beta(self):
        return DEFAULT_BETA.get(self.mode_id, 1.0)

    def contexts_of(self, index: int) -> tuple:
        """1-based context slice indices of slice `index` (1-based)."""
        return tuple(int(j) + 1 for j in np.nonzero(self.g[index - 1])[0])

    def context_counts(self) -> list:
        return [int(n) for n in self.g.sum(axis=1)]


def preset_id(kind) -> int:
    """The id of the preset mode named `kind`, in any case, or of id `kind`."""
    named = isinstance(kind, str)
    mode_id = MODE_IDS.get(kind.upper()) if named else kind
    if mode_id not in MODE_NAMES:
        raise ValueError(f"unknown mode {'kind' if named else 'id'} {kind!r}")
    return mode_id


def make_mode(kind, l: int, params=None) -> ContextMode:
    """Build a preset mode.

    kind: a preset name or id, as `preset_id` takes it.  MDC requires
    params["n_d"], SLC params["enhancements"].  Other matrices are built
    as ContextMode directly and checked with `validate`.
    """
    kind = preset_id(kind)
    params = params or {}
    if l < 1:
        raise ValueError("need at least one slice")
    g = np.zeros((l, l), dtype=bool)
    if kind == MODE_ISC:
        pass
    elif kind == MODE_LC:
        g[np.tril_indices(l, k=-1)] = True
    elif kind == MODE_MDC:
        n_d = params.get("n_d")
        if n_d is None or not 1 <= n_d <= l:
            raise ValueError("MDC requires 1 <= n_d <= L")
        # Round-robin descriptions; within a description slices are
        # chained by level.  Remainder slices (when n_d does not divide
        # L) share the deepest level instead of extending the chain, so
        # the pass count stays floor(L / n_d) - 1.
        max_level = max(l // n_d - 1, 0)
        desc = np.arange(l) % n_d
        level = np.minimum(np.arange(l) // n_d, max_level)
        for i in range(l):
            g[i] = (desc == desc[i]) & (level < level[i])
    elif kind == MODE_SLC:
        e = params.get("enhancements")
        if e is None or e < 1:
            raise ValueError("SLC requires enhancements >= 1")
        if l < 2:
            raise ValueError("SLC requires at least a base and one slice")
        # Slice 1 is the base layer; the rest form E chains, each
        # conditioned on the base and on earlier slices of its branch.
        branch = (np.arange(1, l) - 1) % e
        rank = (np.arange(1, l) - 1) // e
        for i in range(1, l):
            g[i, 0] = True
            same = branch == branch[i - 1]
            earlier = rank < rank[i - 1]
            g[i, 1:] = same & earlier
    mode = ContextMode(l=l, g=g, mode_id=kind)
    report = validate(mode)
    if report is not None:
        raise ValueError(f"invalid mode: {report}")
    return mode


def validate(mode: ContextMode):
    """None if the mode is valid, else the first Violation found."""
    g = mode.g
    upper = np.argwhere(np.triu(g))
    if len(upper):
        return Violation("recoverability", tuple(int(x) + 1 for x in upper[0]))
    # Row i inherits badly when some context k of i has a context j that
    # i lacks; report the first i, then the first (k, j) of that row.
    # The product counts such k in float32, which BLAS multiplies and
    # which is exact up to 2**24 slices.
    f = g.astype(np.float32)
    rows = np.flatnonzero(((f @ f > 0) & ~g).any(axis=1))
    if len(rows):
        i = int(rows[0])
        k, j = np.argwhere(g[i][:, None] & g & ~g[i])[0]
        return Violation("inheritance", (i + 1, int(k) + 1, int(j) + 1))
    return None


def context_depths(mode: ContextMode) -> list:
    """Dependency depth of each slice: 0 for context-free slices, else
    1 + max depth over its contexts."""
    g = mode.g
    depths = [0] * mode.l
    for i in range(mode.l):
        ctx = np.nonzero(g[i])[0]
        if len(ctx):
            depths[i] = 1 + max(depths[int(j)] for j in ctx)
    return depths


def iteration_schedule(mode: ContextMode):
    """Group slices into predictor passes.

    Returns (groups, k_t): groups[d] lists the 1-based slices whose
    context sets are fully available after pass d; slices at equal depth
    share a pass even across independent chains.  k_t counts the passes
    beyond the cacheable all-mask pass (group 0).  `pipeline.Receiver`
    walks these groups in order and models each group's ready slices in
    one pass.
    """
    depths = context_depths(mode)
    k_t = max(depths) if depths else 0
    groups = [[] for _ in range(k_t + 1)]
    for i, d in enumerate(depths):
        groups[d].append(i + 1)
    return groups, k_t

"""Canonical frontier states for both solvers, and their exact counts.

A frontier state summarizes one column of sweep progress: a labeling of
rows into connected components, valid exactly when it is a non-crossing
partition of the labeled rows. A tour state adds the degree parity of each
row's frontier vertex, with an even number of odd (U) rows per component:
odd-degree vertices can only live on the frontier, and a graph has an even
number of them. So the tour states are derived from the tree states.

Component labels are canonical: scanning rows bottom to top, first
appearances are numbered 1, 2, 3, ... Label 0 marks a row without a
component (degree zero), rendered as "-".

A state has one form in the package: a packed int64 key, with one field
of bits per row, and for a whole state space the two (N, h) int8 matrices
of labels and parities that ``unpack_states`` makes from the keys. The
all-empty state packs to key 0, so it comes first in any sorted key array.

The number of tour states on h rows is the binomial transform of the
little Schroeder numbers; the tree states are counted by the binomial
transform of the Catalan numbers. ``count_states`` computes both, and the
tests cross-check it against exhaustive enumeration.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded, InputError

ZERO, ODD, EVEN = 0, 1, 2

_PARITY_CHAR = {ZERO: "0", ODD: "U", EVEN: "E"}

# The one size guard: every solve enumerates its state space first, so this
# refuses tsp h >= 10 and steiner h >= 12 before anything is allocated.
# The state count grows as ~6.8^h (tsp) and ~5^h (steiner).
MAX_STATES = 1_000_000
# count_states's time grows as h**2 (4 s at h=40 000), so it refuses larger h.
MAX_COUNT_H = 10_000

# --- packed keys ---------------------------------------------------------
#
# Row i of a state occupies the key's i-th field: 6 bits, (parity << 4) |
# label, for the tour variant; 4 bits, the label alone, for the tree
# variant. Canonical labels are at most h (11 at the guard's largest
# space) and parities at most 2, so the packing is lossless: 54 bits at
# tsp h=9, 44 at steiner h=11. Keys sort field by field from the top row
# down, parity before label.

_LABEL_BITS = 4
MAX_LABEL = (1 << _LABEL_BITS) - 1


def pack_states(comp: np.ndarray, parity: np.ndarray | None) -> np.ndarray:
    """One int64 key per row of a label (and parity) matrix."""
    width = _LABEL_BITS if parity is None else _LABEL_BITS + 2
    keys = np.zeros(len(comp), dtype=np.int64)
    for i in range(comp.shape[1] - 1, -1, -1):
        keys <<= width
        keys |= comp[:, i]
        if parity is not None:
            keys |= parity[:, i].astype(np.int64) << _LABEL_BITS
    return keys


def unpack_states(
    keys: np.ndarray, h: int, problem: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """The (N, h) int8 label and parity matrices of packed keys; the parity
    matrix is None for the tree variant. Works one column at a time, so no
    (N, h) int64 intermediate is made."""
    tsp = problem == "tsp"
    width = _LABEL_BITS + 2 if tsp else _LABEL_BITS
    comp = np.empty((len(keys), h), dtype=np.int8)
    parity = np.empty_like(comp) if tsp else None
    for i in range(h):
        field = keys >> (width * i)
        comp[:, i] = field & MAX_LABEL
        if tsp:
            parity[:, i] = (field >> _LABEL_BITS) & 3
    return comp, parity


# --- whole label matrices -------------------------------------------------
#
# The kernels work on (M, h) int8 label matrices, one state per row: the
# canonical relabel, and the two label changes a segment can make.


def relabel_rows(comp: np.ndarray) -> np.ndarray:
    """Every row of a label matrix renumbered by first appearance, bottom
    row first; 0 entries stay 0."""
    m, h = comp.shape
    if m == 0:
        return comp.copy()
    width = int(comp.max()) + 1
    mapping = np.zeros(m * width, dtype=comp.dtype)  # row's old label -> new
    slots = np.arange(0, m * width, width)
    used = np.zeros(m, dtype=comp.dtype)
    out = np.empty_like(comp)
    for j in range(h):
        slot = slots + comp[:, j]
        label = mapping[slot]
        first = (label == 0) & (comp[:, j] > 0)
        used += first
        label[first] = used[first]
        mapping[slot[first]] = label[first]
        out[:, j] = label
    return out


def join_rows(comp: np.ndarray, lo: int) -> np.ndarray:
    """Labels after a segment joins rows lo and lo+1, in canonical form.

    Two components merge, a labeled row extends its component to an empty
    neighbour, and two empty rows open a fresh component. Rows whose two
    labels are already equal come back unchanged.
    """
    hi = lo + 1
    c_lo, c_hi = comp[:, lo], comp[:, hi]
    merge = (c_lo > 0) & (c_hi > 0) & (c_lo != c_hi)
    fresh = (c_lo == 0) & (c_hi == 0)
    out = np.where(merge[:, None] & (comp == c_hi[:, None]), c_lo[:, None], comp)
    out[:, hi] = np.where(c_hi == 0, c_lo, out[:, hi])
    out[:, lo] = np.where(c_lo == 0, c_hi, out[:, lo])
    out[fresh, lo] = out[fresh, hi] = comp.shape[1] + 1
    # Extending keeps first appearances in order; merging and opening may not.
    renumber = merge | fresh
    out[renumber] = relabel_rows(out[renumber])
    return out


def set_label(comp: np.ndarray, r: int, label: int) -> np.ndarray:
    """Labels with row r set to ``label`` (0 to leave its component, or
    h + 1 to open a fresh one), in canonical form."""
    out = comp.copy()
    out[:, r] = label
    return relabel_rows(out)


# --- rendering -----------------------------------------------------------


def render_row(comp_row, parity_row=None) -> str:
    """One state as text: "{(E,E,0),(1,2,-)}" for a tour state, "(1,1,-)"
    for a tree state. A parity outside ZERO/ODD/EVEN shows as its number."""
    comps = ",".join(str(c) if c else "-" for c in comp_row)
    if parity_row is None:
        return f"({comps})"
    pars = ",".join(_PARITY_CHAR.get(p, str(p)) for p in parity_row)
    return f"{{({pars}),({comps})}}"


# --- counting ------------------------------------------------------------


def count_states(h: int, problem: str) -> int:
    """Closed-form size of the state space on h rows (exact big integer).

    One pass over the terms comb(h, k) * base(k): each term follows from
    the previous one or two through the binomial and the Schroeder or
    Catalan recurrence, by small-integer factors only, so tsp h=6000 takes
    milliseconds. Raises GuardExceeded when h > MAX_COUNT_H.
    """
    if h < 1:
        raise InputError("h must be >= 1")
    if problem not in ("tsp", "steiner"):
        raise InputError(f"unknown problem {problem!r}")
    if h > MAX_COUNT_H:
        raise GuardExceeded(f"state count at h={h} is above the limit h={MAX_COUNT_H}")
    total, prev, term = 1 + h, 1, h  # k = 0 and k = 1: base(0) = base(1) = 1
    for k in range(2, h + 1):
        r = h - k + 1  # comb(h, k) = comb(h, k - 1) * r / k
        if problem == "tsp":
            # (k + 1) S_k = 3 (2k - 1) S_{k-1} - (k - 2) S_{k-2}
            prev, term = term, (
                3 * (2 * k - 1) * (k - 1) * r * term - (k - 2) * r * (r + 1) * prev
            ) // ((k - 1) * k * (k + 1))
        else:
            # (k + 1) C_k = 2 (2k - 1) C_{k-1}
            term = term * r * 2 * (2 * k - 1) // (k * (k + 1))
        total += term
    return total


# --- exhaustive enumeration ----------------------------------------------


def _with_parities(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every tour state on the label rows of tree states. From the top row
    down, a row whose label recurs below takes U, and E in a twin state; a
    component's lowest row then takes the parity that evens its U count."""
    parity = np.zeros_like(comp)
    for i in range(comp.shape[1] - 1, -1, -1):
        same = comp == comp[:, i : i + 1]
        free = (comp[:, i] > 0) & same[:, :i].any(axis=1)
        odd = (same[:, i + 1 :] & (parity[:, i + 1 :] == ODD)).sum(axis=1) % 2 == 1
        parity[:, i] = np.where(comp[:, i] == 0, ZERO, np.where(free | odd, ODD, EVEN))
        take = np.concatenate([np.arange(len(comp)), np.flatnonzero(free)])
        comp, parity = comp[take], parity[take]
        parity[len(free) :, i] = EVEN
    return comp, parity


def enumerate_states(h: int, problem: str) -> np.ndarray:
    """The packed keys of all canonical states on h rows, ascending.

    The tree states come from one recursion that scans rows bottom to top
    keeping a stack of open components; a row may stay unlabeled, join an
    open component (closing every component opened after it, which
    non-crossing demands), or open a fresh one. The 4-bit tree key is built
    up field by field on the way down. The tour states are the tree states'
    label rows with every parity assignment that gives each component an
    even number of U rows (``_with_parities``), packed by ``pack_states``.

    Raises InputError when h < 1, and GuardExceeded, before allocating
    anything, when the space holds more than MAX_STATES states.
    """
    tsp = problem == "tsp"
    if not tsp and problem != "steiner":
        raise InputError(f"unknown problem {problem!r}")
    if h < 1:
        raise InputError("h must be >= 1")
    # Any set of rows may be unlabeled, so there are at least 2**h states.
    # A large h is refused without its exact count, which past 4300 digits
    # cannot be formatted into the message.
    if h >= MAX_STATES.bit_length():
        raise GuardExceeded(
            f"{problem} state space at h={h} has at least 2**{h} states, "
            f"above the limit of {MAX_STATES}"
        )
    count = count_states(h, problem)
    if count > MAX_STATES:
        raise GuardExceeded(
            f"{problem} state space at h={h} has {count} states, "
            f"above the limit of {MAX_STATES}"
        )

    out: list[int] = []

    def visit(r: int, stack: tuple[int, ...], next_label: int, key: int):
        # stack: labels of the open components, innermost last
        if r == h:
            out.append(key)
            return
        visit(r + 1, stack, next_label, key)
        shift = _LABEL_BITS * r
        for d, label in enumerate(stack):
            visit(r + 1, stack[: d + 1], next_label, key | label << shift)
        visit(r + 1, stack + (next_label,), next_label + 1, key | next_label << shift)

    visit(0, (), 1, 0)
    keys = np.array(out, dtype=np.int64)
    if tsp:
        comp, _ = unpack_states(keys, h, "steiner")
        keys = pack_states(*_with_parities(comp))
    keys.sort()
    return keys

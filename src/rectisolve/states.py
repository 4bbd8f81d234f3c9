"""Canonical frontier states for both solvers, and their exact counts.

A frontier state summarizes one column of sweep progress: per row, the
degree parity of the frontier vertex (tour variant) and a labeling of rows
into connected components. Valid labelings are exactly the non-crossing
partitions of the labeled rows; the tour variant additionally requires an
even number of odd-parity rows per component (odd-degree vertices can only
live on the frontier, and a graph has an even number of them).

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


def _field_bits(tsp: bool) -> int:
    return _LABEL_BITS + 2 if tsp else _LABEL_BITS


def pack_states(comp: np.ndarray, parity: np.ndarray | None) -> np.ndarray:
    """One int64 key per row of a label (and parity) matrix."""
    width = _field_bits(parity is not None)
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
    width = _field_bits(tsp)
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
    milliseconds.
    """
    if h < 1:
        raise InputError("h must be >= 1")
    if problem not in ("tsp", "steiner"):
        raise InputError(f"unknown problem {problem!r}")
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


def enumerate_states(h: int, problem: str) -> np.ndarray:
    """The packed keys of all canonical states on h rows, ascending.

    Rows are scanned bottom to top keeping a stack of open components; a
    row may stay unlabeled, join an open component (closing every component
    opened after it, which non-crossing demands), or open a fresh one. For
    the tour variant each labeled row picks parity U or E and a component
    may only close with an even number of U rows. The key is built up field
    by field on the way down.

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

    width = _field_bits(tsp)
    stack: list[list[int]] = []  # [label, odd_row_count] per open component
    out: list[int] = []
    # (is odd, parity bits of the field) per parity a labeled row may take
    parities = ((True, ODD << _LABEL_BITS), (False, EVEN << _LABEL_BITS))
    if not tsp:
        parities = ((False, 0),)

    def visit(r: int, next_label: int, key: int):
        if r == h:
            if not (tsp and any(odd % 2 for _, odd in stack)):
                out.append(key)
            return
        visit(r + 1, next_label, key)
        shift = width * r
        for d in range(len(stack) - 1, -1, -1):
            if tsp and d + 1 < len(stack) and stack[d + 1][1] % 2:
                break  # a component above d cannot close; neither can deeper joins
            popped = stack[d + 1 :]
            del stack[d + 1 :]
            entry = stack[d]
            for odd, bits in parities:
                entry[1] += odd
                visit(r + 1, next_label, key | (bits | entry[0]) << shift)
                entry[1] -= odd
            stack.extend(popped)
        entry = [next_label, 0]
        stack.append(entry)
        for odd, bits in parities:
            entry[1] += odd
            visit(r + 1, next_label + 1, key | (bits | next_label) << shift)
            entry[1] -= odd
        stack.pop()

    visit(0, 1, 0)
    keys = np.array(out, dtype=np.int64)
    keys.sort()
    return keys

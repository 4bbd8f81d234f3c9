"""Canonical frontier states for both solvers, plus their counting oracles.

A frontier state summarizes one column of sweep progress: per row, the
degree parity of the frontier vertex (tour variant) and a labeling of rows
into connected components. Valid labelings are exactly the non-crossing
partitions of the labeled rows; the tour variant additionally requires an
even number of odd-parity rows per component (odd-degree vertices can only
live on the frontier, and a graph has an even number of them).

Component labels are canonical: scanning rows bottom to top, first
appearances are numbered 1, 2, 3, ... Label 0 marks a row without a
component (degree zero), rendered as "-".

The number of tour states on h rows is the binomial transform of the
little Schroeder numbers; the tree states are counted by the binomial
transform of the Catalan numbers. Both closed forms are exposed here and
cross-checked against exhaustive enumeration in the tests.
"""

from __future__ import annotations

import re
from math import comb
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CrossingPartition,
    GuardExceeded,
    InputError,
    OddCountViolation,
    ParityComponentMismatch,
    SingletonNotEven,
)

ZERO, ODD, EVEN = 0, 1, 2

_PARITY_CHAR = {ZERO: "0", ODD: "U", EVEN: "E"}
_PARITY_CODE = {"0": ZERO, "U": ODD, "E": EVEN, 0: ZERO, 1: ODD, 2: EVEN}

# The one size guard: every solve enumerates its state space first, so this
# refuses tsp h >= 10 and steiner h >= 12 before anything is allocated.
# The state count grows as ~6.8^h (tsp) and ~5^h (steiner).
MAX_STATES = 1_000_000


def parity_add(p: int, m: int) -> int:
    """Degree-parity arithmetic: add m incident edges (m in 0..2)."""
    if m == 0:
        return p
    if p == ZERO:
        return ODD if m == 1 else EVEN
    if m == 2:
        return p
    return EVEN if p == ODD else ODD


class TspFrontierState(NamedTuple):
    parity: tuple[int, ...]
    comp: tuple[int, ...]


class SteinerFrontierState(NamedTuple):
    comp: tuple[int, ...]


FrontierState = Union[TspFrontierState, SteinerFrontierState]


def initial_tsp_state(h: int) -> TspFrontierState:
    return TspFrontierState((ZERO,) * h, (0,) * h)


def initial_steiner_state(h: int) -> SteinerFrontierState:
    return SteinerFrontierState((0,) * h)


def relabel_components(comp: Sequence[int]) -> tuple[int, ...]:
    """Renumber labels by first appearance; 0 entries stay 0."""
    mapping: dict[int, int] = {}
    out = []
    for c in comp:
        if c == 0:
            out.append(0)
        else:
            m = mapping.get(c)
            if m is None:
                m = len(mapping) + 1
                mapping[c] = m
            out.append(m)
    return tuple(out)


# --- whole label matrices -------------------------------------------------
#
# The table build works on (M, h) int8 label matrices, one state per row.
# These are the vectorised counterparts of relabel_components and of the
# two label changes a segment can make.


def relabel_rows(comp: np.ndarray) -> np.ndarray:
    """relabel_components applied to every row of a label matrix."""
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


def _check_noncrossing(comp: Sequence[int]):
    """Reject interleaved components via the open-block stack discipline."""
    stack: list[int] = []
    closed: set[int] = set()
    for c in comp:
        if c == 0:
            continue
        if stack and stack[-1] == c:
            continue
        if c in stack:
            while stack[-1] != c:
                closed.add(stack.pop())
        elif c in closed:
            raise CrossingPartition(f"components interleave: {tuple(comp)}")
        else:
            stack.append(c)


def _normalize_comp(raw_comp: Sequence) -> list[int]:
    out = []
    for c in raw_comp:
        if c is None or c == 0:
            out.append(0)
        elif isinstance(c, int) and c > 0:
            out.append(c)
        else:
            raise InputError(f"component label must be None or positive: {c!r}")
    return out


def canonicalize_tsp(raw_parity: Sequence, raw_comp: Sequence) -> TspFrontierState:
    """Validate and canonically relabel a tour frontier state.

    Raises ParityComponentMismatch, CrossingPartition, SingletonNotEven or
    OddCountViolation when the state is structurally impossible.
    """
    if len(raw_parity) != len(raw_comp) or not raw_parity:
        raise InputError("parity and component vectors must have equal length >= 1")
    parity = [_PARITY_CODE[p] for p in raw_parity]
    comp = _normalize_comp(raw_comp)
    for p, c in zip(parity, comp):
        if (p == ZERO) != (c == 0):
            raise ParityComponentMismatch(
                f"parity {_PARITY_CHAR[p]} with component {c or '-'}"
            )
    _check_noncrossing(comp)
    comp_t = relabel_components(comp)
    members: dict[int, list[int]] = {}
    for p, c in zip(parity, comp_t):
        if c:
            members.setdefault(c, []).append(p)
    for c, ps in members.items():
        if len(ps) == 1 and ps[0] != EVEN:
            raise SingletonNotEven(f"component {c} is a non-even singleton")
        if sum(1 for p in ps if p == ODD) % 2:
            raise OddCountViolation(f"component {c} has an odd number of U rows")
    return TspFrontierState(tuple(parity), comp_t)


def canonicalize_steiner(raw_comp: Sequence) -> SteinerFrontierState:
    """Validate and canonically relabel a tree frontier state."""
    if not raw_comp:
        raise InputError("component vector must have length >= 1")
    comp = _normalize_comp(raw_comp)
    _check_noncrossing(comp)
    return SteinerFrontierState(relabel_components(comp))


# --- fixed-width packing -------------------------------------------------
#
# One byte per row: bits 6-7 parity, bits 0-5 component label (0 = none).
# Injective for h <= 16 since a non-crossing partition has <= h <= 16 parts.


def encode_state(state: FrontierState) -> int:
    key = 0
    if isinstance(state, TspFrontierState):
        for i, (p, c) in enumerate(zip(state.parity, state.comp)):
            key |= ((p << 6) | c) << (8 * i)
    else:
        for i, c in enumerate(state.comp):
            key |= c << (8 * i)
    return key


def decode_state(key: int, h: int, problem: str) -> FrontierState:
    if problem == "tsp":
        parity = []
        comp = []
        for i in range(h):
            b = (key >> (8 * i)) & 0xFF
            parity.append(b >> 6)
            comp.append(b & 0x3F)
        return TspFrontierState(tuple(parity), tuple(comp))
    if problem == "steiner":
        return SteinerFrontierState(
            tuple((key >> (8 * i)) & 0xFF for i in range(h))
        )
    raise InputError(f"unknown problem {problem!r}")


# --- rendering -----------------------------------------------------------


def render_state(state: FrontierState) -> str:
    comps = ",".join(str(c) if c else "-" for c in state.comp)
    if isinstance(state, TspFrontierState):
        pars = ",".join(_PARITY_CHAR[p] for p in state.parity)
        return f"{{({pars}),({comps})}}"
    return f"({comps})"


_STATE_TOKEN = re.compile(r"\(([^()]*)\)")


def parse_state(text: str, problem: str) -> FrontierState:
    """Inverse of render_state; input is validated and canonicalized."""
    groups = _STATE_TOKEN.findall(text)
    if problem == "tsp":
        if len(groups) != 2:
            raise InputError(f"expected two vectors in {text!r}")
        parity = [t.strip() for t in groups[0].split(",")]
        comp = [_parse_label(t) for t in groups[1].split(",")]
        return canonicalize_tsp(parity, comp)
    if len(groups) != 1:
        raise InputError(f"expected one vector in {text!r}")
    return canonicalize_steiner([_parse_label(t) for t in groups[0].split(",")])


def _parse_label(token: str):
    token = token.strip()
    return None if token == "-" else int(token)


# --- counting ------------------------------------------------------------


def super_catalan(k: int) -> int:
    """Little Schroeder numbers 1, 1, 3, 11, 45, 197, ... by recurrence."""
    if k < 0:
        raise InputError("k must be >= 0")
    a, b = 1, 1  # S_0, S_1
    if k == 0:
        return a
    for n in range(2, k + 1):
        a, b = b, (3 * (2 * n - 1) * b - (n - 2) * a) // (n + 1)
    return b


def catalan(k: int) -> int:
    if k < 0:
        raise InputError("k must be >= 0")
    return comb(2 * k, k) // (k + 1)


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


def enumerate_states(h: int, problem: str) -> frozenset:
    """All canonical states on h rows, built directly.

    Rows are scanned bottom to top keeping a stack of open components; a
    row may stay unlabeled, join an open component (closing every component
    opened after it, which non-crossing demands), or open a fresh one. For
    the tour variant each labeled row picks parity U or E and a component
    may only close with an even number of U rows.

    Raises GuardExceeded, before allocating anything, when h < 1 or the
    space holds more than MAX_STATES states.
    """
    tsp = problem == "tsp"
    if not tsp and problem != "steiner":
        raise InputError(f"unknown problem {problem!r}")
    if h < 1:
        raise GuardExceeded("enumeration needs h >= 1")
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

    parity = [ZERO] * h
    comp = [0] * h
    stack: list[list[int]] = []  # [label, odd_row_count] per open component
    out: list[FrontierState] = []
    parities = (ODD, EVEN) if tsp else (EVEN,)

    def emit():
        if tsp:
            if any(odd % 2 for _, odd in stack):
                return
            out.append(TspFrontierState(tuple(parity), tuple(comp)))
        else:
            out.append(SteinerFrontierState(tuple(comp)))

    def visit(r: int, next_label: int):
        if r == h:
            emit()
            return
        parity[r] = ZERO
        comp[r] = 0
        visit(r + 1, next_label)
        for d in range(len(stack) - 1, -1, -1):
            if tsp and d + 1 < len(stack) and stack[d + 1][1] % 2:
                break  # a component above d cannot close; neither can deeper joins
            popped = stack[d + 1 :]
            del stack[d + 1 :]
            entry = stack[d]
            comp[r] = entry[0]
            for p in parities:
                parity[r] = p
                entry[1] += p == ODD
                visit(r + 1, next_label)
                entry[1] -= p == ODD
            stack.extend(popped)
        stack.append([next_label, 0])
        comp[r] = next_label
        for p in parities:
            parity[r] = p
            stack[-1][1] += p == ODD
            visit(r + 1, next_label + 1)
            stack[-1][1] -= p == ODD
        stack.pop()

    visit(0, 1)
    return frozenset(out)

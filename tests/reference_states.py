"""Tuple frontier states, for the tests only.

The package holds a state space as packed int64 keys and their int8 label
and parity matrices (``rectisolve.states``). This module keeps the
state-by-state form those arrays are checked against: NamedTuple states,
their validation and canonical relabelling, an 8-bit-per-row key, the
rendering, and the recursive enumerator that builds every state as a
tuple. The reference sweep (``reference_sweep.py``) runs on these tuples.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

from rectisolve.errors import InputError
from rectisolve.states import EVEN, ODD, ZERO, enumerate_states, unpack_states

_PARITY_CHAR = {ZERO: "0", ODD: "U", EVEN: "E"}
_PARITY_CODE = {"0": ZERO, "U": ODD, "E": EVEN, 0: ZERO, 1: ODD, 2: EVEN}


class InvalidStateError(ValueError):
    """A raw frontier state violates a structural invariant."""


class CrossingPartition(InvalidStateError):
    pass


class OddCountViolation(InvalidStateError):
    pass


class SingletonNotEven(InvalidStateError):
    pass


class ParityComponentMismatch(InvalidStateError):
    pass


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


def encode_state(state: FrontierState) -> int:
    """One byte per row: bits 6-7 parity, bits 0-5 component label.

    Injective for h <= 16, since a non-crossing partition has at most h
    parts. A different layout from the package's packed key, sorting the
    same way: field by field from the top row down, parity before label.
    """
    key = 0
    if isinstance(state, TspFrontierState):
        for i, (p, c) in enumerate(zip(state.parity, state.comp)):
            key |= ((p << 6) | c) << (8 * i)
    else:
        for i, c in enumerate(state.comp):
            key |= c << (8 * i)
    return key


def render_state(state: FrontierState) -> str:
    comps = ",".join(str(c) if c else "-" for c in state.comp)
    if isinstance(state, TspFrontierState):
        pars = ",".join(_PARITY_CHAR[p] for p in state.parity)
        return f"{{({pars}),({comps})}}"
    return f"({comps})"


def enumerate_tuple_states(h: int, problem: str) -> frozenset:
    """All canonical states on h rows, as tuples.

    Rows are scanned bottom to top keeping a stack of open components; a
    row may stay unlabeled, join an open component (closing every component
    opened after it, which non-crossing demands), or open a fresh one. For
    the tour variant each labeled row picks parity U or E and a component
    may only close with an even number of U rows.
    """
    tsp = problem == "tsp"
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


def sorted_tuple_states(h: int, problem: str) -> list[FrontierState]:
    """``enumerate_tuple_states`` in ``encode_state`` order, which is the
    package's state index order."""
    return sorted(enumerate_tuple_states(h, problem), key=encode_state)


def states_from_matrices(comp, parity) -> list[FrontierState]:
    """The rows of a label (and parity) matrix as tuple states, in order;
    ``parity`` is None for the tree variant."""
    comps = [tuple(row) for row in comp.tolist()]
    if parity is None:
        return [SteinerFrontierState(c) for c in comps]
    return [TspFrontierState(tuple(p), c) for p, c in zip(parity.tolist(), comps)]


def package_states(h: int, problem: str) -> list[FrontierState]:
    """The package's enumeration (``rectisolve.states.enumerate_states``)
    as tuple states, in index order."""
    keys = enumerate_states(h, problem)
    return states_from_matrices(*unpack_states(keys, h, problem))

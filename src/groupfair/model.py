"""Core domain types: valuations, instances, allocations, agent partitions.

All utilities are exact non-negative integers; rational inputs are scaled to
a common integer grid per agent at parse time. A bundle of goods is a bitmask
over good indices 0..m-1, so subset algebra is plain integer arithmetic.
Everything here is immutable; repair happens by building new values.

Serialization speaks a small JSON dialect::

    {"m": 4,
     "agents": [{"id": 0, "kind": "binary", "values": [1, 0, 1, 0]},
                {"id": 1, "kind": "table", "table": {"0": 0, "1": 2, ...}}],
     "groups": {"fixed": [[0], [1]]}}

Table keys are bundle bitmasks rendered as decimal strings, one per mask,
in any order (keys in mask order are read as one run of values); repeated
JSON object keys are rejected. Variable-group
instances carry ``{"variable": [n1, n2, ...]}`` instead of fixed members.

The shape of a valuation is fixed at construction: a value vector holds m
plain non-negative ints (0 or 1 when binary), a table all 2^m entries over
at most MAX_TABLE_GOODS goods, as a tuple indexed by bundle mask. So is the
structure of an instance: at least one group, every valuation over its m
goods, fixed groups that partition the agents 0..n-1, variable sizes that
are non-negative and sum to n; and so are good-id lists (no negative or
repeated id) and agent partitions (groups 0..k-1). Constructors and the
loader raise ValueError on anything else, so ``validate`` judges only table
content (integers, normalisation, monotonicity). Valuations and instances
are hashable.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import UnsupportedValuationError

BINARY = "binary"
ADDITIVE = "additive"
TABLE = "table"
KINDS = (BINARY, ADDITIVE, TABLE)

# Hard cap on goods for table valuations and exhaustive enumeration. 2**24
# table rows is the largest footprint we are willing to hold or walk.
MAX_TABLE_GOODS = 24


def _is_table_size(size: int, m: int) -> bool:
    """size == 2^m, tested without building 2^m for a huge m."""
    return size.bit_length() == m + 1 and not size & (size - 1)


def full_mask(m: int) -> int:
    """Bitmask of all m goods."""
    return (1 << m) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask`` as a sorted tuple."""
    # Tuples of data-dependent length are built from lists: tuple() of a
    # generator allocates 10 slots and resizes, so the tuple skips the free
    # list of its final length on the way in but joins it on the way out,
    # and those free lists fill up question after question.
    return tuple([*iter_bits(mask)])


def mask_of(goods: Iterable[int]) -> int:
    """Bitmask with the listed good indices set."""
    mask = 0
    for g in goods:
        mask |= 1 << g
    return mask


@dataclass(frozen=True)
class Valuation:
    """A single agent's utility function over bundles of ``m`` goods.

    ``kind`` selects the representation: ``binary`` and ``additive`` carry a
    per-good value vector of length m, ``table`` carries the utility of
    every bundle as a tuple of 2^m values indexed by bundle bitmask.
    Binary is a restriction of additive (values in {0, 1}); both are
    additive over disjoint bundles. Tables can encode any monotonic
    function with u(empty) = 0. Construction enforces the shape and the
    vector values; the validator checks table values.
    """

    kind: str
    m: int
    values: tuple[int, ...] | None = None
    table: tuple[int, ...] | None = None
    # Cache of the desired-good mask (binary valuations only); derived, not
    # part of identity.
    _dmask: int = field(default=-1, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown valuation kind {self.kind!r}")
        if self.m < 0:
            raise ValueError(f"negative good count {self.m}")
        if self.kind == TABLE and self.m > MAX_TABLE_GOODS:
            raise ValueError(f"table over {self.m} goods exceeds the cap of {MAX_TABLE_GOODS}")
        name, shape, need = (
            ("table entries", self.table, 1 << self.m)
            if self.kind == TABLE
            else ("values", self.values, self.m)
        )
        if type(shape) is not tuple or len(shape) != need:
            got = len(shape) if type(shape) is tuple else f"a {type(shape).__name__}"
            raise ValueError(
                f"{self.kind} valuation over {self.m} goods needs a tuple of {need} {name}, got {got}"
            )
        if self.kind == TABLE:
            return
        binary = self.kind == BINARY
        dm = 0
        for g, val in enumerate(self.values):
            if type(val) is not int:
                raise ValueError(f"value of good {g} is not an integer")
            if val < 0:
                raise ValueError(f"negative value {val} for good {g}")
            if binary and val:
                if val != 1:
                    raise ValueError(f"binary value {val} for good {g} outside {{0,1}}")
                dm |= 1 << g
        object.__setattr__(self, "_dmask", dm)

    # -- constructors -------------------------------------------------

    @staticmethod
    def additive(values: Sequence[int]) -> "Valuation":
        return Valuation(ADDITIVE, len(values), values=tuple(values))

    @staticmethod
    def binary(values: Sequence[int]) -> "Valuation":
        return Valuation(BINARY, len(values), values=tuple(values))

    @staticmethod
    def binary_from_desired(m: int, goods: Iterable[int]) -> "Valuation":
        desired = set(goods)
        if not desired <= set(range(m)):
            raise ValueError(f"desired goods {sorted(desired - set(range(m)))} outside 0..{m - 1}")
        return Valuation(BINARY, m, values=tuple(1 if g in desired else 0 for g in range(m)))

    @staticmethod
    def table_of(m: int, entries: Mapping[int, int]) -> "Valuation":
        """Table valuation from a mask-to-value map holding exactly the
        masks 0..2^m-1, in any order."""
        if m < 0:
            raise ValueError(f"negative good count {m}")
        size = len(entries)
        if _is_table_size(size, m):
            try:
                return Valuation(TABLE, m, table=tuple(map(entries.__getitem__, range(size))))
            except KeyError:
                pass
        # size keys cannot cover all of 0..size, so some mask up to size is absent
        hole = next(mask for mask in range(size + 1) if mask not in entries)
        if hole >> m == 0:
            raise ValueError(f"table over {m} goods misses subset mask {hole}")
        extra = next(mask for mask in entries if mask not in range(1 << m))
        raise ValueError(f"table over {m} goods has out-of-range subset mask {extra!r}")

    @staticmethod
    def zeros(m: int) -> "Valuation":
        return Valuation(ADDITIVE, m, values=(0,) * m)

    # -- queries ------------------------------------------------------

    @property
    def desired_mask(self) -> int:
        """Mask of positively valued goods (binary valuations only)."""
        if self.kind != BINARY:
            raise UnsupportedValuationError("desired_mask is defined for binary valuations")
        return self._dmask

    def is_additive_like(self) -> bool:
        return self.kind in (BINARY, ADDITIVE)

    def value(self, bundle: int) -> int:
        """Utility of a bundle given as a bitmask over 0..m-1."""
        if bundle < 0 or bundle >> self.m:
            raise ValueError(f"bundle {bundle:#x} has goods outside 0..{self.m - 1}")
        if self.kind == TABLE:
            return self.table[bundle]
        if self.kind == BINARY:
            return (self._dmask & bundle).bit_count()
        total = 0
        vals = self.values
        while bundle:
            low = bundle & -bundle
            total += vals[low.bit_length() - 1]
            bundle ^= low
        return total

    # -- derived valuations -------------------------------------------

    def with_zero_good(self) -> "Valuation":
        """Extend to m+1 goods where the new last good is worth nothing.

        For tables the new good has zero marginal utility in every context,
        so monotonicity and normalization are preserved.
        """
        if self.kind == TABLE:
            # mask | 2^m sits 2^m further on and is worth what mask is
            return Valuation(TABLE, self.m + 1, table=self.table * 2)
        return Valuation(self.kind, self.m + 1, values=self.values + (0,))


@dataclass(frozen=True)
class FixedGroups:
    """Groups given as explicit member lists, one per group."""

    members: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VariableGroups:
    """Only group sizes are fixed; membership is part of the solution."""

    sizes: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.sizes)


Groups = Union[FixedGroups, VariableGroups]


def _group_of_each(members: Sequence[Iterable[int]], n: int) -> tuple[int, ...]:
    """Group index of each agent 0..n-1 under member lists that partition them."""
    gof = [-1] * n
    for gi, group in enumerate(members):
        for a in group:
            if type(a) is not int or not 0 <= a < n:
                raise ValueError(f"group {gi}: unknown agent id {a!r}")
            if gof[a] != -1:
                raise ValueError(f"group {gi}: agent {a} appears in more than one group")
            gof[a] = gi
    if -1 in gof:
        missing = [a for a in range(n) if gof[a] == -1]
        raise ValueError(f"agents {missing} belong to no group")
    return tuple(gof)


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: goods 0..m-1, agents, and group structure.

    Construction enforces the structure and raises ValueError on its first
    flaw: a negative good count, no groups at all, a valuation over other
    than m goods, fixed groups that do not partition the agents 0..n-1, or
    variable sizes that are negative or do not sum to n.
    """

    m: int
    agents: tuple[Valuation, ...]
    groups: Groups
    # Group index of each agent under fixed groups, None under variable
    # ones; derived, not part of identity.
    assignment: tuple[int, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"negative good count {self.m}")
        if self.groups.k == 0:
            raise ValueError("instance has no groups")
        for agent, v in enumerate(self.agents):
            if v.m != self.m:
                raise ValueError(
                    f"agent {agent}: valuation covers {v.m} goods, instance has {self.m}"
                )
        n = len(self.agents)
        gof = None
        if isinstance(self.groups, FixedGroups):
            gof = _group_of_each(self.groups.members, n)
        else:
            sizes = self.groups.sizes
            if any(s < 0 for s in sizes):
                raise ValueError("negative group size")
            if sum(sizes) != n:
                raise ValueError(
                    f"group sizes {list(sizes)} sum to {sum(sizes)}, instance has {n} agents"
                )
        object.__setattr__(self, "assignment", gof)

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def k(self) -> int:
        return self.groups.k

    @property
    def is_fixed(self) -> bool:
        return isinstance(self.groups, FixedGroups)

    @staticmethod
    def fixed(m: int, agents: Sequence[Valuation], members: Sequence[Sequence[int]]) -> "Instance":
        return Instance(m, tuple(agents), FixedGroups(tuple(tuple(g) for g in members)))

    @staticmethod
    def variable(m: int, agents: Sequence[Valuation], sizes: Sequence[int]) -> "Instance":
        return Instance(m, tuple(agents), VariableGroups(tuple(sizes)))


@dataclass(frozen=True)
class Allocation:
    """Bundles of goods, one bitmask per group, disjoint and covering."""

    bundles: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.bundles)

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.bundles)

    def goods_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(bits_of(b) for b in self.bundles)

    @staticmethod
    def of(goods_lists: Sequence[Iterable[int]]) -> "Allocation":
        """Bundles from good-id lists, no id negative or listed twice."""
        lists = [tuple(goods) for goods in goods_lists]
        seen: set[int] = set()
        for g in (g for goods in lists for g in goods):
            if type(g) is not int or g < 0:
                raise ValueError(f"good {g!r} is not a good id")
            if g in seen:
                raise ValueError(f"good {g} is listed twice")
            seen.add(g)
        return Allocation(tuple(map(mask_of, lists)))


@dataclass(frozen=True)
class AgentPartition:
    """Assignment of each agent to a group index 0..k-1."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self):
        for a, g in enumerate(self.assignment):
            if type(g) is not int or not 0 <= g < self.k:
                raise ValueError(f"agent {a}: group {g!r} outside 0..{self.k - 1}")

    def sizes(self) -> tuple[int, ...]:
        counts = [0] * self.k
        for g in self.assignment:
            counts[g] += 1
        return tuple(counts)

    def members(self, group: int) -> tuple[int, ...]:
        return tuple([a for a, g in enumerate(self.assignment) if g == group])

    def groups_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.members(g) for g in range(self.k))

    @staticmethod
    def from_groups(groups: Sequence[Iterable[int]]) -> "AgentPartition":
        """Group g holds ``groups[g]``; the n ids listed must be 0..n-1."""
        lists = [tuple(members) for members in groups]
        return AgentPartition(_group_of_each(lists, sum(map(len, lists))), len(lists))


# ---------------------------------------------------------------------------
# validation


def _is_clean_table(vals: tuple, m: int) -> bool:
    """Whether a table passes every table check: non-negative ints as
    values, the empty bundle at 0, monotone.

    A quick pass for the common valid case; any table it refuses goes
    through the per-mask checks, which word the report. Each good g splits
    the masks into blocks of 2^(g+1) whose low half lacks g and whose high
    half adds it; the halves are compared slice against slice, walking
    whichever of blocks or in-block offsets is fewer.
    """
    size = len(vals)
    # monotone from vals[0] == 0 up, so no value can be negative
    if set(map(type, vals)) != {int} or vals[0] != 0:
        return False
    for g in range(m):
        step = 1 << g
        span = step << 1
        if step <= size // span:
            pairs = ((vals[o::span], vals[o + step :: span]) for o in range(step))
        else:
            pairs = (
                (vals[base : base + step], vals[base + step : base + span])
                for base in range(0, size, span)
            )
        if not all(all(map(operator.le, low, high)) for low, high in pairs):
            return False
    return True


def validate(inst: Instance) -> list[str]:
    """Collect table content violations as human-readable strings.

    An empty report means every table is normalized, monotone and holds
    non-negative ints; all else is enforced at construction. Tables are
    judged here, not when built, as that costs a pass over 2^m entries and
    no table reader assumes more than the stored values.
    """
    out = []
    for agent, v in enumerate(inst.agents):
        table = v.table
        if v.kind != TABLE or _is_clean_table(table, v.m):
            continue
        if table[0] != 0:
            out.append(f"agent {agent}: normalization violated, empty bundle worth {table[0]}")
        for mask, val in enumerate(table):
            if not isinstance(val, int) or isinstance(val, bool):
                out.append(f"agent {agent}: table value at mask {mask} is not an integer")
                continue
            if val < 0:
                out.append(f"agent {agent}: negative table value {val} at mask {mask}")
            for g in iter_bits(mask):
                below = table[mask & ~(1 << g)]
                if below > val:
                    out.append(
                        f"agent {agent}: monotonicity violated at subset {set(bits_of(mask))}"
                        f" after dropping good {g} ({below} > {val})"
                    )
    return out


def allocation_violations(m: int, alloc: Allocation) -> list[str]:
    """Check that bundles are disjoint and cover goods 0..m-1."""
    out = []
    union = 0
    total = 0
    for i, b in enumerate(alloc.bundles):
        if b < 0 or b >> m:
            out.append(f"bundle {i} has goods outside 0..{m - 1}")
        union |= b
        total += b.bit_count()
    if total != m or union != full_mask(m):
        out.append("bundles do not partition the goods")
    return out


# ---------------------------------------------------------------------------
# serialization


def _as_fraction(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("boolean is not a utility value")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # use the decimal reading of the literal, not the binary float
        return Fraction(str(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"utility value {x!r} divides by zero") from None
    raise ValueError(f"cannot read utility value {x!r}")


def _scale_to_ints(fracs: Sequence[Fraction]) -> list[int]:
    if not fracs:
        return []
    denom = math.lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs]


def _utility_ints(raw: Iterable) -> list[int]:
    """One agent's utilities on a common integer grid. Plain ints already
    are (``bool`` is not ``int`` by type and goes the slow way, which
    rejects it); anything else is read exactly and scaled."""
    vals = list(raw)
    if set(map(type, vals)) == {int}:
        return vals
    return _scale_to_ints([_as_fraction(x) for x in vals])


def _json_int(x, what: str) -> int:
    """A plain JSON integer: no float to truncate, no boolean, no string."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _json_ints(raw, what: str) -> tuple[int, ...]:
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ValueError(f"{what}s must be given as an array, got {raw!r}")
    return tuple([_json_int(x, what) for x in raw])


def _table_keys(raw: Mapping) -> list[int]:
    """Masks of a table's keys, which must be canonical decimal strings.

    Canonical keys map to distinct masks, so "1" and "01" cannot both land
    on mask 1 and silently overwrite each other.
    """
    try:
        keys = list(map(int, raw))
        if list(map(str, keys)) == list(raw):
            return keys
    except (TypeError, ValueError):
        pass
    bad = next(k for k in raw if not _is_canonical_key(k))
    raise ValueError(f"table key {bad!r} is not a canonical decimal mask")


def _is_canonical_key(key) -> bool:
    try:
        return str(int(key)) == key
    except (TypeError, ValueError):
        return False


def _mask_keys(size: int) -> list[str]:
    """The canonical table keys "0", "1", ... of masks 0..size-1, in order."""
    return list(map(str, range(size)))


def _valuation_from_dict(d: Mapping, m: int, canonical: list[str]) -> Valuation:
    """One agent's valuation. ``canonical`` is the document's list of the
    2^m canonical table keys, filled by the first table of that size."""
    kind = d.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == TABLE:
        raw = d.get("table")
        if not isinstance(raw, Mapping):
            raise ValueError("table kind needs a 'table' object")
        size = len(raw)
        # keys "0", "1", ... in mask order: the values are the table itself
        if _is_table_size(size, m):
            if not canonical:
                canonical.extend(_mask_keys(size))
            if list(raw) == canonical:
                return Valuation(TABLE, m, table=tuple(_utility_ints(raw.values())))
        keys = _table_keys(raw)
        return Valuation.table_of(m, dict(zip(keys, _utility_ints(raw.values()))))
    raw = d.get("values")
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ValueError(f"{kind} kind needs a 'values' array")
    return Valuation(kind, m, values=tuple(_utility_ints(raw)))


def instance_from_dict(d: Mapping) -> Instance:
    """Build an Instance from the JSON dialect; raises ValueError on bad data."""
    m = _json_int(d.get("m"), "'m'")
    agents_raw = d.get("agents")
    if not isinstance(agents_raw, Sequence):
        raise ValueError("instance needs an 'agents' array")
    by_id = {}
    canonical: list[str] = []
    for entry in agents_raw:
        if not isinstance(entry, Mapping) or "id" not in entry:
            raise ValueError("each agent needs an 'id'")
        aid = _json_int(entry["id"], "agent id")
        if aid in by_id:
            raise ValueError(f"duplicate agent id {aid}")
        try:
            by_id[aid] = _valuation_from_dict(entry, m, canonical)
        except ValueError as exc:
            raise ValueError(f"agent {aid}: {exc}") from None
    n = len(by_id)
    if sorted(by_id) != list(range(n)):
        raise ValueError("agent ids must be dense 0..n-1")
    agents = tuple([by_id[i] for i in range(n)])
    groups_raw = d.get("groups")
    if not isinstance(groups_raw, Mapping):
        raise ValueError("instance needs a 'groups' object")
    if "fixed" in groups_raw:
        fixed = groups_raw["fixed"]
        if not isinstance(fixed, Sequence) or isinstance(fixed, (str, bytes)):
            raise ValueError("'fixed' groups must be an array of member arrays")
        groups: Groups = FixedGroups(tuple([_json_ints(grp, "group member") for grp in fixed]))
    elif "variable" in groups_raw:
        groups = VariableGroups(_json_ints(groups_raw["variable"], "group size"))
    else:
        raise ValueError("groups must be 'fixed' or 'variable'")
    return Instance(m, agents, groups)


def instance_to_dict(inst: Instance) -> dict:
    return _instance_doc(inst, _table_object)


def _table_object(table: tuple) -> dict:
    return {str(mask): val for mask, val in enumerate(table)}


def _instance_doc(inst: Instance, table_entry) -> dict:
    """The instance's JSON document with ``table_entry(table)`` standing for
    each table object."""
    agents = []
    for aid, v in enumerate(inst.agents):
        entry: dict = {"id": aid, "kind": v.kind}
        if v.kind == TABLE:
            entry["table"] = table_entry(v.table)
        else:
            entry["values"] = list(v.values)
        agents.append(entry)
    if isinstance(inst.groups, FixedGroups):
        groups = {"fixed": [list(g) for g in inst.groups.members]}
    else:
        groups = {"variable": list(inst.groups.sizes)}
    return {"m": inst.m, "agents": agents, "groups": groups}


def _distinct_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated JSON object key {key!r}")
            seen.add(key)
    return obj


def instance_from_json(text: str) -> Instance:
    try:
        data = json.loads(text, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc}") from None
    if not isinstance(data, Mapping):
        raise ValueError("instance document must be a JSON object")
    return instance_from_dict(data)


def instance_to_json(inst: Instance, indent: int | None = 2) -> str:
    """The text of ``json.dumps(instance_to_dict(inst), indent=indent)``.

    CPython runs its C encoder only without indentation, and the
    pure-Python one spends about 2 us on each table row. So the indented
    layout is built here around compact C-encoded runs of plain ints, and
    a table of plain ints is written straight from its tuple through one
    row layout per document, with no ``{"mask": value}`` dict between.
    """
    if indent is None:
        return json.dumps(instance_to_dict(inst))
    return dumps_indented(instance_to_rows(inst), indent)


def instance_to_rows(inst: Instance) -> dict:
    """:func:`instance_to_dict`'s document with each table left as its tuple,
    for :func:`dumps_indented` to write as the same rows, wherever in a
    report the document sits; ``str`` shows it as the dict's text."""
    layouts: dict[str, str] = {}
    return _instance_doc(inst, lambda table: _TableRows(table, layouts))


def dumps_indented(obj, indent: int = 2) -> str:
    """The text of ``json.dumps(obj, indent=indent)`` for dicts with string
    keys, lists and scalars, with the long runs of plain ints (tables,
    colourings) left to the C encoder."""
    return _indented(obj, " " * indent, "\n")


_FLAT = {int, bool, str, type(None)}  # what json.dumps writes the same with or without indent


class _TableRows:
    """A table object ``{"0": v0, "1": v1, ...}`` as the writer's input,
    kept as the valuation's tuple. ``layouts`` maps an indentation to the
    rows with a ``%d`` for each value; it is shared by the tables of one
    document, which all have 2^m rows."""

    __slots__ = ("table", "layouts")

    def __init__(self, table: tuple, layouts: dict[str, str]):
        self.table = table
        self.layouts = layouts

    def __repr__(self) -> str:
        return repr(_table_object(self.table))

    def render(self, step: str, newline: str) -> str:
        table = self.table
        if set(map(type, table)) != {int}:
            return _indented(_table_object(table), step, newline)
        inner = newline + step
        rows = self.layouts.get(inner)
        if rows is None:
            rows = self.layouts[inner] = ("," + inner).join(
                f'"{key}": %d' for key in _mask_keys(len(table))
            )
        return "{" + inner + rows % table + newline + "}"


def _indented(obj, step: str, newline: str) -> str:
    """``json.dumps(obj, indent=len(step))`` for dicts with string keys,
    lists and scalars; ``newline`` carries the current indentation."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is _TableRows:
        return obj.render(step, newline)
    if isinstance(obj, dict):
        opening, closing, items = "{", "}", obj.values()
    elif isinstance(obj, (list, tuple)):
        opening, closing, items = "[", "]", obj
    else:
        return json.dumps(obj)
    if not obj:
        return opening + closing
    inner = newline + step
    if set(map(type, items)) <= _FLAT:
        compact = json.dumps(obj)[1:-1]
        # one ", " between items; a key or string holding one would show as an extra
        if compact.count(", ") == len(obj) - 1:
            return opening + inner + compact.replace(", ", "," + inner) + newline + closing
    if opening == "{":
        parts = [f"{encode_basestring_ascii(key)}: {_indented(val, step, inner)}" for key, val in obj.items()]
    else:
        parts = [_indented(val, step, inner) for val in obj]
    return opening + inner + ("," + inner).join(parts) + newline + closing

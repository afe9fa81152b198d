"""Cross-cutting invariants, driven by hypothesis instead of fixed seeds."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupfair import (
    EF1,
    GroupFairError,
    EF2,
    EFX,
    EFX0,
    Instance,
    Valuation,
    exact1_partition,
    fair_toward,
    instance_from_dict,
    instance_from_json,
    instance_to_json,
    is_exact1,
    up_to,
    validate,
)
from groupfair.model import _as_fraction, _scale_to_ints, _table_keys, _utility_ints, full_mask
from groupfair.oracle import balanced_allocation_count, balanced_size_vectors, _multinomial

values = st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=7)


@st.composite
def valuation_and_split(draw):
    vals = draw(values)
    m = len(vals)
    own = draw(st.integers(min_value=0, max_value=(1 << m) - 1)) if m else 0
    return Valuation.additive(vals), own, full_mask(m) ^ own


@given(valuation_and_split())
def test_envy_hierarchy(data):
    v, own, other = data
    if fair_toward(v, own, other, EFX0):
        assert fair_toward(v, own, other, EFX)
    if fair_toward(v, own, other, EFX):
        assert fair_toward(v, own, other, EF1)
    if fair_toward(v, own, other, EF1):
        assert fair_toward(v, own, other, EF2)


@given(valuation_and_split(), st.integers(min_value=1, max_value=5))
def test_efc_monotone_in_budget(data, c):
    v, own, other = data
    if fair_toward(v, own, other, up_to(c)):
        assert fair_toward(v, own, other, up_to(c + 1))


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=8),
       st.integers(min_value=0))
def test_binary_efx_collapses_to_ef1(bits, raw_own):
    v = Valuation.binary(bits)
    own = raw_own % (1 << v.m) if v.m else 0
    other = full_mask(v.m) ^ own
    assert fair_toward(v, own, other, EFX) == fair_toward(v, own, other, EF1)


@given(values, values)
def test_exact1_both_agents_accept_both_sides(vals1, vals2):
    size = min(len(vals1), len(vals2))
    v1 = Valuation.additive(vals1[:size])
    v2 = Valuation.additive(vals2[:size])
    x, y = exact1_partition(v1, v2)
    assert x & y == 0 and (x | y) == full_mask(size)
    assert is_exact1(v1, (x, y)) and is_exact1(v2, (x, y))


@settings(max_examples=50)
@given(st.lists(values, min_size=1, max_size=4), st.integers(min_value=1, max_value=3))
def test_json_round_trip_identity(rows, k):
    m = len(rows[0])
    agents = [Valuation.additive(row[:m] + [0] * (m - len(row))) for row in rows]
    sizes = [len(agents)] + [0] * (k - 1)
    inst = Instance.variable(m, agents, sizes)
    assert instance_from_json(instance_to_json(inst)) == inst


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=5))
def test_balanced_count_is_sum_of_multinomials(m, k):
    total = sum(_multinomial(m, vec) for vec in balanced_size_vectors(m, k))
    assert balanced_allocation_count(m, k) == total


table_keys = st.one_of(
    st.integers(min_value=-2, max_value=20).map(str),
    st.sampled_from(["01", " 1", "1 ", "1_0", "+1", "-0", "0x1", "", "abc", "\u0663"]),
)
table_values = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1/2", "1/0", "0.25", "-1", "1e3", "", "abc", None, [1], {}]),
)


@st.composite
def table_documents(draw):
    m = draw(st.integers(min_value=0, max_value=4))
    shape = draw(st.sampled_from(["canonical", "dropped", "any"]))
    if shape == "canonical":
        # keys "0", "1", ... in mask order, for 2^m masks or a power of two
        # next to it, sometimes with one slot's key replaced
        size = 1 << draw(st.integers(min_value=max(0, m - 1), max_value=m + 1))
        table = {str(mask): draw(table_values) for mask in range(size)}
        if draw(st.booleans()):
            slot = draw(st.integers(min_value=0, max_value=size - 1))
            key = draw(table_keys)
            items = list(table.items())
            items[slot] = (key, items[slot][1])
            table = dict(items)
    elif shape == "dropped":  # every mask present, some dropped
        table = {str(mask): draw(table_values) for mask in range(1 << m)}
        for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=2)):
            table.pop(key, None)
    else:
        table = draw(st.dictionaries(table_keys, table_values, max_size=1 << m))
    agent = {"id": 0, "kind": "table", "table": table}
    return {"m": m, "agents": [agent], "groups": {"fixed": [[0]]}}


def _per_key_reading(doc):
    """The table read key by key, as the loader does for keys out of order:
    the loaded valuation, or the text of the error it raises."""
    raw = doc["agents"][0]["table"]
    try:
        return Valuation.table_of(doc["m"], dict(zip(_table_keys(raw), _utility_ints(raw.values()))))
    except ValueError as exc:
        return f"agent 0: {exc}"


@settings(max_examples=300)
@given(table_documents())
def test_table_loader_fuzz(doc):
    """The loader raises only its own errors, gives what the per-key reading
    gives (valuation or message) whatever the key order, and plain-int
    tables load exactly as through the Fraction reading."""
    raw = doc["agents"][0]["table"]
    try:
        inst = instance_from_dict(doc)
    except ValueError as exc:
        assert str(exc) == _per_key_reading(doc)
        return
    except GroupFairError:
        return
    assert inst.agents[0] == _per_key_reading(doc)
    assert isinstance(validate(inst), list)
    table = inst.agents[0].table
    # loaded only if the keys are exactly the masks, in any order
    assert sorted(map(int, raw)) == list(range(len(table))) == list(range(1 << doc["m"]))
    assert all(type(x) is int for x in table)
    if all(type(x) is int for x in raw.values()):
        scaled = dict(zip(map(int, raw), _scale_to_ints([_as_fraction(x) for x in raw.values()])))
        assert table == tuple(scaled[mask] for mask in range(len(table)))


def _partitions_exist(n, k, fits):
    """Whether some map of agents 0..n-1 to groups 0..k-1 fits."""
    return any(fits(gof) for gof in product(range(k), repeat=n))


def _fixed_is_partition(n, members):
    k = len(members)
    return _partitions_exist(
        n, k, lambda gof: all(sorted(members[g]) == [a for a in range(n) if gof[a] == g] for g in range(k))
    )


def _sizes_have_partition(n, sizes):
    k = len(sizes)
    return _partitions_exist(n, k, lambda gof: all(gof.count(g) == sizes[g] for g in range(k)))


@st.composite
def group_specs(draw):
    """Groups of a random agent partition, then up to two members dropped
    or inserted (ids -1..4), or up to two sizes shifted."""
    n = draw(st.integers(min_value=0, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    gof = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    edits = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        members = [[a for a in range(n) if gof[a] == g] for g in range(k)]
        for _ in range(edits):
            grp = members[draw(st.integers(0, k - 1))]
            if grp and draw(st.booleans()):
                grp.pop(draw(st.integers(0, len(grp) - 1)))
            else:
                grp.insert(draw(st.integers(0, len(grp))), draw(st.integers(-1, 4)))
        return n, ("fixed", members)
    sizes = [gof.count(g) for g in range(k)]
    for _ in range(edits):
        sizes[draw(st.integers(0, k - 1))] += draw(st.integers(-2, 2))
    return n, ("variable", sizes)


@settings(max_examples=300)
@given(group_specs())
def test_groups_construct_exactly_when_valid(spec):
    """Groups build an instance exactly when some partition of the agents
    matches them, both by the constructors and through the loader."""
    n, (kind, raw) = spec
    agents = [Valuation.binary([1])] * n
    valid = _fixed_is_partition(n, raw) if kind == "fixed" else _sizes_have_partition(n, raw)
    build = Instance.fixed if kind == "fixed" else Instance.variable
    doc = {
        "m": 1,
        "agents": [{"id": a, "kind": "binary", "values": [1]} for a in range(n)],
        "groups": {kind: raw},
    }
    if valid:
        inst = build(1, agents, raw)
        assert instance_from_dict(doc) == inst
        if kind == "fixed":
            assert all(a in raw[g] for a, g in enumerate(inst.assignment))
    else:
        with pytest.raises(ValueError):
            build(1, agents, raw)
        with pytest.raises(ValueError):
            instance_from_dict(doc)

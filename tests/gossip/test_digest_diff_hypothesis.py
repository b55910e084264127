"""The tuple-compare / symmetric-difference ``differing_cells`` and the
order-caching digest rendering give the answers of the dict-based
implementation they replace, with and without a group restriction."""

from hypothesis import given, settings, strategies as st

from repro.gossip import DigestIndex, differing_cells

GROUPS = (None, "f1", "f2")
#: (key, counter, group) additions; removals pick one of them back.
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(0, 40), st.integers(0, 30),
            st.sampled_from(GROUPS),
        ),
        st.tuples(st.just("discard"), st.integers(0, 10**6)),
    ),
    max_size=40,
)
SCOPES = st.one_of(
    st.none(),
    st.frozensets(st.sampled_from(GROUPS), max_size=3),
)


def build(ops):
    """Run ``ops`` on a width-4 index; returns it and, after every
    step, its cached rendering beside a from-scratch one."""
    index, present, renders = DigestIndex(4), [], []
    for op in ops:
        if op[0] == "add":
            entry = (op[1], (op[2], 0), op[3])
            if entry[0] in {key for key, _, _ in present}:
                continue
            index.add(*entry)
            present.append(entry)
        elif present:
            index.discard(*present.pop(op[1] % len(present)))
        renders.append((index.digest().cells, reference_cells(index)))
    return index, renders


def reference_cells(index, groups=None):
    """The rendering re-sorted from scratch, as every render once did."""
    return tuple(
        (g, lo, slot[0], slot[1])
        for (g, lo), slot in sorted(
            index._cells.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1])
        )
        if groups is None or g in groups
    )


def reference_diff(local, remote, groups=None):
    def cell_map(digest):
        return {(g, lo): (count, fp) for g, lo, count, fp in digest.cells}

    mine = cell_map(local.digest(groups))
    theirs = {
        cell: value
        for cell, value in cell_map(remote).items()
        if groups is None or cell[0] in groups
    }
    out = {
        cell
        for cell in set(mine) | set(theirs)
        if mine.get(cell) != theirs.get(cell)
    }
    return tuple(sorted(out, key=lambda c: (repr(c[0]), c[1])))


@settings(max_examples=300, deadline=None)
@given(ours=OPS, theirs=OPS, scope=SCOPES, remote_scope=SCOPES)
def test_differing_cells_matches_the_dict_reference(
    ours, theirs, scope, remote_scope
):
    local, _ = build(ours)
    remote = build(theirs)[0].digest(remote_scope)
    assert differing_cells(local, remote, scope) == reference_diff(
        local, remote, scope
    )
    assert differing_cells(local, local.digest(scope), scope) == ()


@settings(max_examples=200, deadline=None)
@given(ops=OPS, scope=SCOPES)
def test_rendering_matches_a_fresh_sort(ops, scope):
    index, renders = build(ops)
    assert all(cached == fresh for cached, fresh in renders)
    assert index.digest(scope).cells == reference_cells(index, scope)


def test_render_sorts_only_when_the_cell_set_changes():
    index = DigestIndex(4)
    index.add("a", (1, 0))
    index.digest()
    rows = index._rows
    index.add("b", (2, 0))  # same cell: its row is updated in place
    assert index._rows is rows
    index.add("c", (9, 0))  # new cell: re-sort on the next render
    assert index._rows is None
    assert [lo for _, lo, _, _ in index.digest().cells] == [0, 8]
    index.discard("c", (9, 0))
    assert index._rows is None
    assert index.digest().cells == ((None, 0, 2, index._cells[None, 0][1]),)

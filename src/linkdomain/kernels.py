"""Seed sweep: the 2-neighbor closure from every seed edge, in pure Python.

Kernel contract, sweep_seeds(indptr, indices, seed_u, seed_v, m, sizes_out)
-> order. indptr and indices are the CSR sequences the graph stores, as
ConnectivityGraph.csr_arrays() returns them, and seed_u and seed_v the
parallel seed endpoint sequences it stores, as seed_arrays() returns them
(all four read, never copied or written); sizes_out is a list with one
slot per seed:

- order is the absorption order of the first seed, in the given order,
  whose closure covers all m vertices (a linked order: each vertex after
  the seed joined with two neighbors in), or None when none does;
- for every seed up to the winner, sizes_out[s] is the exact closure size
  when the kernel decided the seed, and 0 when it skipped it as subsumed:
  its ends share a neighbor and both lie inside the stuck set of an earlier
  seed it ran, so its closure lies inside that set (a stuck set is closed,
  no vertex outside has two neighbors inside). A seed whose ends share no
  neighbor reads 2, inside a stuck set or not.

Exact shortcuts keep the work down, and each seed takes the cheapest test
first. A seed whose ends share no neighbor can never grow, so it is
written as size 2 without running it; only a seed that passes this filter
is looked up among the recorded stuck sets' inner edges, and only one that
is not found there is run. A run that sticks at a triangle [a, b, c]
records (a, c) and (b, c) from its queue, since c joined through both seed
ends; a larger stuck set is recorded by scanning its members' rows.
When neither end is heavy (below), the filter hashes the lower end's row
into a set and scans the higher end's row against it; the set is kept
until the lower end changes. The seed lists are ascending, so each lower
end's seeds are consecutive, and a lower end a pays O(deg a) once and each
seed O(deg b); the verdict does not depend on that order, only the reuse
does.
And a vertex is heavy when its degree is at least heavy_cut(m) = max(1,
m // 64): a heavy vertex keeps its neighborhood as a bitmask (a Python
int, and the same bits as bytes for O(1) membership tests), so absorbing
it costs O(m / 64) word operations in C instead of a Python-level scan of
its adjacency, while light vertices keep adjacency lists and per-seed
epoch stamps. Masks take O(H * m / 8) bytes for H heavy vertices; since
H <= 2|E| / heavy_cut(m), that is O(|E|). One grow routine serves every
graph: a closure runs the plain list loop until it absorbs its first heavy
vertex (in a graph with none, to the end), so a seed that never meets one
does no bitset work. The closure is order-insensitive (absorbing a vertex
never lowers another vertex's count), so the FIFO worklist reaches the
same set as any other tie-break. closure() runs the same routine on one
seed with no heavy vertex, which is the list loop alone.
"""

from collections.abc import Sequence
from itertools import chain
from operator import sub

_HEAVY_DIVISOR = 64


def heavy_cut(m: int) -> int:
    """Degree from which a vertex of an m-vertex graph keeps a neighborhood bitmask."""
    return max(1, m // _HEAVY_DIVISOR)


def sweep_seeds(
    indptr: Sequence[int],
    indices: Sequence[int],
    seed_u: Sequence[int],
    seed_v: Sequence[int],
    m: int,
    sizes_out: list[int],
) -> list[int] | None:
    """Run the 2-neighbor closure from every seed edge in order, skipping subsumed ones.

    Writes the reached-set size of seed s into sizes_out[s]: 2 when its
    ends share no neighbor, else 0 when it lies inside an earlier seed's
    stuck set and was not run, else the size of its closure; and stops
    at the first seed whose closure covers all m vertices, returning its
    absorption order (the seed's two ends first); returns None when every
    seed gets stuck. Entries after the winner are left untouched. Per-seed
    state is reset with an epoch stamp instead of clearing lists, so a seed
    costs O(vertices it touches), plus O(m / 8) bytes of bitset work per
    heavy vertex it absorbs and once more for the first, when it also
    rereads the adjacency of the light vertices absorbed before it (a seed
    that absorbs no heavy vertex does no bitset work). The common-neighbor
    filter costs a seed (a, b) with two light ends O(deg b), plus O(deg a)
    when a differs from the previous such seed's lower end; the adjacency is
    read only by slicing rows out of the graph's stored `indices`, which is
    never copied whole. A seed that passes the filter absorbs the common
    neighbor, so every seed run sticks at three or more vertices, and its
    stuck set is recorded for the subsumption test: a triangle from its
    queue, a larger set by a scan of its members' rows. With m == 2 the
    one possible seed covers, and is returned before the loop.
    """
    ptr = indptr
    cut = heavy_cut(m)
    nbytes = (m + 7) >> 3
    masks = [0] * m  # neighborhood bitmask of each heavy vertex, 0 for light ones
    rows: dict[int, bytes] = {}  # the same bitmasks as bytes, for O(1) membership tests
    for v, degree in enumerate(map(sub, ptr[1:], ptr)):
        if degree >= cut:
            buf = bytearray(nbytes)
            for w in indices[ptr[v] : ptr[v + 1]]:
                buf[w >> 3] |= 1 << (w & 7)
            masks[v] = int.from_bytes(buf, "little")
            rows[v] = bytes(buf)
    # stamp[w] == 2s + 1: w is in the reached set of seed s; == 2s: w has
    # exactly one absorbed light neighbor (and no way in yet); anything
    # else: neither, for this seed.
    stamp = [-1] * m
    subsumed: set[int] = set()  # a * m + b for seed edges inside a recorded stuck set
    row_owner, row_set = -1, set()  # the row of the last light lower end tested, as a set

    if m == 2 and len(seed_u):  # the one seed (0, 1) covers both vertices
        sizes_out[0] = 2
        return [seed_u[0], seed_v[0]]
    for s in range(len(seed_u)):
        a, b = seed_u[s], seed_v[s]
        # The common-neighbor filter: by masks, a row and a list, or two lists.
        mask_a, mask_b = masks[a], masks[b]
        if mask_a and mask_b:
            common = mask_a & mask_b
        elif mask_a or mask_b:
            row, light = (rows[a], b) if mask_a else (rows[b], a)
            common = any(row[w >> 3] >> (w & 7) & 1 for w in indices[ptr[light] : ptr[light + 1]])
        else:
            if a != row_owner:
                row_owner, row_set = a, set(indices[ptr[a] : ptr[a + 1]])
            common = not row_set.isdisjoint(indices[ptr[b] : ptr[b + 1]])
        if not common:
            sizes_out[s] = 2
            continue
        if a * m + b in subsumed:
            sizes_out[s] = 0
            continue
        one = 2 * s
        mem = one + 1
        stamp[a] = stamp[b] = mem
        queue, member_bits = _grow(a, b, one, mem, ptr, indices, masks, rows, stamp, nbytes)
        size = len(queue)
        sizes_out[s] = size
        if size == m:
            return queue
        if size == 3:
            # A stuck triangle: c joined through both ends, so (a, c) and
            # (b, c) are its only inner edges besides the seed.
            c = queue[2]
            subsumed.add(a * m + c if a < c else c * m + a)
            subsumed.add(b * m + c if b < c else c * m + b)
            continue
        # Record the stuck set's inner edges: light members scan their
        # adjacency, heavy ones read N[v] & P from the masks.
        reached = int.from_bytes(member_bits, "little") if member_bits is not None else 0
        for v in queue:
            base = v * m
            if masks[v]:
                higher = v + 1
                for w in _bits((masks[v] & reached) >> higher):
                    subsumed.add(base + higher + w)
            else:
                for w in indices[ptr[v] : ptr[v + 1]]:
                    if w > v and stamp[w] == mem:
                        subsumed.add(base + w)
    return None


def closure(indptr: Sequence[int], indices: Sequence[int], m: int, a: int, b: int) -> list[int]:
    """Absorption order of seed edge (a, b), its ends first: _grow with no
    heavy vertex (`rows` empty), so the list loop alone, on m bytes of stamps."""
    stamp = bytearray(m)
    stamp[a] = stamp[b] = 2
    return _grow(a, b, 1, 2, indptr, indices, None, {}, stamp, 0)[0]


def _grow(
    a, b, one, mem, ptr, indices, masks, rows, stamp, nbytes
) -> tuple[list[int], bytearray | None]:
    """Closure of seed (a, b): (absorption order, member bitset, or None
    when no heavy vertex was absorbed).

    Until the closure absorbs its first heavy vertex this is the plain list
    loop, so a seed that never meets a hub pays no bitset work. From then
    on, `once` is the union of the absorbed heavy vertices' neighborhoods,
    and `light1` the bitset of vertices with an absorbed light neighbor. A
    light vertex's neighbor w joins on its second light neighbor, or on its
    first when it is in `once`. A heavy vertex h brings in, by mask, every
    non-member neighbor that already had another absorbed neighbor: heavy
    (in `once`) or light (in `light1`).
    """
    queue = [a, b]
    push = queue.append
    absorbed = iter(queue)  # sees the vertices pushed while it runs
    for v in absorbed:
        if v in rows:
            break
        for w in indices[ptr[v] : ptr[v + 1]]:
            t = stamp[w]
            if t == one:
                stamp[w] = mem
                push(w)
            elif t != mem:
                stamp[w] = one
    else:
        return queue, None
    # v is the first heavy vertex, and the vertices before it the light ones
    # scanned so far: light1 starts as their neighbors stamped `one` (it may
    # later hold members; its use masks them out).
    members = bytearray(nbytes)
    light1 = bytearray(nbytes)
    for w in queue:
        members[w >> 3] |= 1 << (w & 7)
    scanned = queue.index(v)
    for u in queue[:scanned]:
        for w in indices[ptr[u] : ptr[u + 1]]:
            if stamp[w] == one:
                light1[w >> 3] |= 1 << (w & 7)
    any_light = scanned > 0  # whether light1 may be nonempty
    once = 0
    once_row = bytes(nbytes)  # `once` as bytes, for O(1) membership tests
    for v in chain((v,), absorbed):
        mask = masks[v]
        if mask:
            ready = once | int.from_bytes(light1, "little") if any_light else once
            if ready:
                for w in _bits(mask & ready & ~int.from_bytes(members, "little")):
                    stamp[w] = mem
                    members[w >> 3] |= 1 << (w & 7)
                    push(w)
            if once:
                once |= mask
                once_row = once.to_bytes(nbytes, "little")
            else:
                once, once_row = mask, rows[v]
            continue
        any_light = True
        for w in indices[ptr[v] : ptr[v + 1]]:
            t = stamp[w]
            if t == mem:
                continue
            if t == one or once_row[w >> 3] >> (w & 7) & 1:
                stamp[w] = mem
                members[w >> 3] |= 1 << (w & 7)
                push(w)
            else:
                stamp[w] = one
                light1[w >> 3] |= 1 << (w & 7)
    return queue, members


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x >= 0, ascending."""
    text = format(x, "b")
    top = len(text) - 1
    found = []
    i = text.rfind("1")
    while i >= 0:
        found.append(top - i)
        i = text.rfind("1", 0, i)
    return found

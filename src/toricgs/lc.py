"""Local-complementation classes: orbit enumeration and the locality search.

A labeled graph on n vertices is identified by its canonical key: the
upper-triangle bits of the adjacency matrix packed row-major into one
integer.  Orbits under local complementation are closed breadth-first over
those keys by one numpy engine that works on native machine words; numpy
loads on the first orbit (see :mod:`toricgs.lazy_numpy`), and the rest of
the module is integer arithmetic.  Each frontier member carries its key as
uint64 words and its adjacency rows as n-bit masks; a child's key is its
parent's words XOR the flip pattern of the complemented neighbourhood, laid
out by a plan fixed per n (for n <= 16, a table of all 2^n patterns, built
once per process on first use).  Keys are deduplicated and looked up
through one uint64 fingerprint each.  A key that fits one word (n <= 11) is
its own fingerprint, so a match is the key and its run holds it once; a
wider key's fingerprint match is confirmed on the full words, only where
the fingerprints matched.  Each generation is closed in batches of 2,048
members, one numpy step each; the batch is the unit of the budget and of
what a stopped search stores.  Most generations hold a few hundred keys, so
a step is written for few numpy calls: keys are taken by index, and each
reduction over the words is one 2-D ufunc call.  Each member's parent and
complemented vertex are recorded.  An orbit keeps that record with its
keys, as words that become integers when its members are first read;
:meth:`LcOrbit.paths` spells every path from it.  Adjacency rows are single
words, so orbits are limited to 64 vertices; a larger graph raises
``ValueError``.  A locality search, :func:`certify_nonlocal`, is the same
closure with the allowed-edge mask as its stop test: it tests each batch's
children before deduplicating them and stops at the first local one, so a
stopped orbit's members are the keys found in the batches before the hit's.
It returns the orbit alone, whose ``complete`` flag is the verdict, and it
replays every local hit it finds from the seed graph with the pure-Python
complementation of :mod:`toricgs.graphs` before returning it.

Two facts about local complementation (LC) cut the work of a closure.  LC_v
is an involution: it keeps N(v), so applying it twice toggles each pair in
N(v) twice.  A child of generation d therefore lies in generation d - 1, d
or d + 1, and is looked up only there.  LC_u and LC_v commute when u and v
are distinct and not adjacent: neither changes the other's neighbourhood.
So the children of a member that cannot be new are not built (see
:func:`_orbit_vector` for both proofs).

The pairwise equivalence test, which enumerates no orbit, is in :mod:`toricgs.lc_system`.
"""

from __future__ import annotations

import functools
import hashlib
from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence

from .graphs import SimpleGraph, local_complement_sequence
from .lazy_numpy import np

# Kept because perfbench/workloads.py calls lc.lc_equivalent and lc.verify_witness,
# and perfbench/tracer.py traces lc.lc_equivalent.
from .lc_system import lc_equivalent, verify_witness  # noqa: F401

DEFAULT_ORBIT_BUDGET = 10**8
_BATCH = 2048  # frontier members per numpy step: the unit of the budget and of a stopped search's store
MAX_ORBIT_VERTICES = 64  # adjacency rows are single machine words
_TABLE_MAX_N = 16  # flips of every neighbourhood tabulated up to here: at most 1 MB, for n = 16
_TABLE_BLOCK = 4096  # neighbourhoods per step of a table build, so its temporaries stay small
_BLOCK = 1024  # keys converted to integers or hashed at a time, so no whole-orbit copy is made


class OrbitBudgetError(RuntimeError):
    """Orbit enumeration exceeded the member budget; verdict unknown.

    ``reached`` counts the stored keys after the batch that crossed the budget.
    """

    def __init__(self, budget: int, reached: int):
        super().__init__(f"orbit budget of {budget} keys exceeded (reached {reached})")
        self.budget = budget
        self.reached = reached


class CertificateError(ValueError):
    """A required certificate (nonlocality, LC witness or local path) is missing or does not verify."""


def canonical_key(g: SimpleGraph) -> int:
    """Pack the upper adjacency triangle row-major into one integer."""
    return _pack_rows(g.rows, g.n)


def _pack_rows(rows: Sequence[int], n: int) -> int:
    key = 0
    shift = 0
    for i in range(n):
        key |= (rows[i] >> (i + 1)) << shift
        shift += n - 1 - i
    return key


def _unpack_key(key: int, n: int) -> list[int]:
    rows = [0] * n
    shift = 0
    for i in range(n):
        width = n - 1 - i
        chunk = (key >> shift) & ((1 << width) - 1)
        rows[i] |= chunk << (i + 1)
        bit = 1 << i
        while chunk:  # only the set bits: the row's neighbours above i
            low = chunk & -chunk
            rows[i + low.bit_length()] |= bit
            chunk ^= low
        shift += width
    return rows


def graph_from_key(key: int, labels: Sequence) -> SimpleGraph:
    return SimpleGraph(labels, _unpack_key(key, len(labels)))


class LcOrbit:
    """An enumerated (or partially enumerated) local-complementation class.

    The outcome of a search is stored once, in ``hit_key``: the orbit is
    complete, and its ``members`` are the whole class, exactly when no local
    hit stopped it.  An orbit stopped at a local hit holds the keys found
    before the hit: the seed, every generation before the hit's, and the new
    keys of the hit's generation from the frontier batches before the hit's
    batch; the hit itself is among them only when it is the seed.  The keys
    are held as the engine's words and converted to ascending integers when
    ``members`` is first read, so a stopped search whose caller reads only
    its hit converts nothing else.  The orbit keeps the record its search
    made: the words list the seed, then each generation in path order, and
    ``origins`` holds each later generation's ``parent * n + vertex``
    origins, from which :meth:`paths` spells every stored key's path.
    Complementation paths list vertex positions in ``labels``, not labels.
    """

    def __init__(
        self,
        labels: tuple,
        seed_key: int,
        words: np.ndarray,  # the keys, one column each, most significant word first
        origins: list,  # per generation after the seed: parent * n + vertex of each member
        hit_key: Optional[int] = None,
        hit_path: Optional[tuple] = None,
    ):
        self.labels, self.seed_key, self.words, self.origins = labels, seed_key, words, origins
        self.hit_key, self.hit_path = hit_key, hit_path

    @property
    def complete(self) -> bool:
        """No local hit stopped the search, so ``members`` are the whole class."""
        return self.hit_key is None

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def size(self) -> int:
        return self.words.shape[1]

    @property
    def generations(self) -> int:
        """How many generations were complemented, the seed's first; a stopped search stopped inside the last."""
        return len(self.origins)

    def paths(self) -> dict[int, tuple]:
        """Each stored key mapped to its shortest, lexicographically least complementation path, in path order.

        One forward pass: a member's path is its parent's path and its
        complemented vertex, and each generation's parents come before it.
        """
        n = self.n_vertices
        paths, out, start = [()], {self.seed_key: ()}, 1
        for origins in self.origins:
            parent, vertex = np.divmod(origins, n)
            paths = [paths[p] + (v,) for p, v in zip(parent.tolist(), vertex.tolist())]
            out.update(zip(_key_ints(self.words[:, start : start + len(paths)]), paths))
            start += len(paths)
        return out

    @functools.cached_property
    def members(self) -> list[int]:
        """The keys in ascending order, converted on first read."""
        return _key_ints(self.words.take(np.lexsort(self.words[::-1]), axis=1))

    def contains(self, key: int) -> bool:
        i = bisect_left(self.members, key)
        return i < len(self.members) and self.members[i] == key

    def member_graph(self, key: int) -> SimpleGraph:
        return SimpleGraph._derived(self.labels, _unpack_key(key, len(self.labels)))

    def digest(self) -> str:
        """Fingerprint of the member set: SHA-256 of the hex keys, each followed by a comma."""
        h = hashlib.sha256()
        for start in range(0, len(self.members), _BLOCK):
            block = self.members[start : start + _BLOCK]
            h.update(("%x," * len(block) % tuple(block)).encode())
        return h.hexdigest()


class _Plan(NamedTuple):
    """Where complementation flips land in the key words, fixed per vertex count.

    Row i of the upper triangle occupies key bits ``S_i .. S_i + n - 2 - i``
    with ``S_i = i (n - 1) - i (i - 1) / 2``.  Its segment sits at shift
    ``S_i mod 64`` of word ``S_i // 64`` (counting from the least significant
    word) and spills into the next word when it crosses a word boundary.
    """

    n: int
    nwords: int
    dtype: np.dtype  # narrowest unsigned type that holds one adjacency row
    vertices: np.ndarray  # 0 .. n - 1 in ``dtype``
    bits: np.ndarray  # 1 << vertex in ``dtype``
    after: np.ndarray  # per vertex v, the bits of the vertices above v, in ``dtype``
    places: tuple  # per row segment: (word, left shift, spill) with spill (word, right shift) or None
    table: Optional[np.ndarray] = None  # flip words of every neighbourhood, for small n


@functools.cache  # one entry per n <= MAX_ORBIT_VERTICES
def _plan(n: int) -> _Plan:
    nwords = max(1, -(-(n * (n - 1) // 2) // 64))
    places, start = [], 0
    for width in range(n - 1, 0, -1):
        word, shift = divmod(start, 64)
        spill = (nwords - 2 - word, 64 - shift) if shift + width > 64 else None
        places.append((nwords - 1 - word, shift, spill))
        start += width
    dtype = np.dtype(next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if np.iinfo(t).bits >= n))
    vertices = np.arange(n, dtype=dtype)
    after = np.array([(1 << n) - (2 << v) for v in range(n)], dtype=dtype)
    plan = _Plan(n, nwords, dtype, vertices, np.left_shift(1, vertices, dtype=dtype), after, tuple(places))
    if n <= _TABLE_MAX_N:
        table = np.empty((nwords, 1 << n), dtype=np.uint64)
        for start in range(0, 1 << n, _TABLE_BLOCK):
            stop = min(start + _TABLE_BLOCK, 1 << n)
            table[:, start:stop] = _flips(np.arange(start, stop, dtype=dtype), plan)
        table.setflags(write=False)
        plan = plan._replace(table=table)
    return plan


def _flips(nbr: np.ndarray, plan: _Plan) -> np.ndarray:
    """Key words flipped by complementing at a vertex with each neighbourhood in ``nbr``.

    Complementing at v flips edge bit (i, j) iff i and j are both neighbours
    of v, so row segment i of the flips is ``N_v >> (i + 1)`` when bit i of
    ``N_v`` is set, and zero otherwise.
    """
    pattern = nbr >> plan.vertices[:-1, None]  # one row per segment
    segments = (pattern >> 1) * (pattern & 1)
    flips = np.zeros((plan.nwords, len(nbr)), dtype=np.uint64)
    for segment, (word, shift, spill) in zip(segments, plan.places):
        flips[word] |= np.left_shift(segment, shift, dtype=np.uint64)
        if spill is not None:
            flips[spill[0]] |= segment.astype(np.uint64) >> spill[1]
    return flips


def _children(words: np.ndarray, rows: np.ndarray, keep: np.ndarray, plan: _Plan) -> tuple:
    """Keys of the complementations that can give a new key, and each one's ``member * n + vertex``.

    Member m is complemented at the vertices in ``keep[m]`` that have two
    neighbours or more, in (member, vertex) order.
    """
    live = np.logical_and(keep[:, None] & plan.bits, rows & (rows - 1))
    at = live.ravel().nonzero()[0]
    nbr = rows.ravel()[at]
    children = plan.table.take(nbr, axis=1) if plan.table is not None else _flips(nbr, plan)
    children ^= words.take(at // plan.n, axis=1)
    return children, at


def _complemented_rows(rows: np.ndarray, origins: np.ndarray, plan: _Plan) -> tuple:
    """Rows after complementing member ``origin // n`` of ``rows`` at ``v = origin % n``, and their keep masks.

    A member's keep mask holds the vertices above v and the neighbours of v:
    the complementations of the member that can give a new key, before the
    degree test of :func:`_children`.  The generation is written ``_BATCH``
    origins at a time with ``out=`` into results allocated once for it: no
    temporary holds a generation, and no concatenation copies one.
    """
    complemented = np.empty((len(origins), plan.n), dtype=plan.dtype)
    keep = np.empty(len(origins), dtype=plan.dtype)
    for start in range(0, len(origins), _BATCH):
        batch = slice(start, start + _BATCH)
        parent, vertex = np.divmod(origins[batch], plan.n)
        nbr = rows.take(origins[batch])  # row v of each parent: N(v), kept by the complementation
        column = nbr[:, None]
        flips = (column ^ plan.bits) * (column >> plan.vertices & 1)
        np.bitwise_xor(rows.take(parent, axis=0), flips, out=complemented[batch])
        np.bitwise_or(plan.after.take(vertex), nbr, out=keep[batch])
    return complemented, keep


def _fingerprint(words: np.ndarray) -> np.ndarray:
    """One uint64 per key: the key itself when it fits one word, else a multiply-xorshift mix.

    A one-word fingerprint is the identity map, so equal fingerprints mean
    equal keys and no match needs confirming.  For wider keys only speed
    depends on how well the mix spreads them: every match is confirmed on
    the full words.
    """
    if len(words) == 1:
        return words[0]
    mix, shift, fold = _mix_constants()
    h = words[0] * mix
    for w in words[1:]:
        h ^= h >> shift
        h ^= w
        h *= mix
    h ^= h >> fold
    return h


@functools.cache
def _mix_constants() -> tuple:
    """The fingerprint's multiplier and shifts as uint64 scalars, built on first use (numpy loads lazily)."""
    return np.uint64(0x9E3779B97F4A7C15), np.uint64(29), np.uint64(32)


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which keys (columns) of two word arrays differ: one reduction over the words."""
    return np.logical_or.reduce(a != b, axis=0)


def _distinct(fp: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct key, in ascending fingerprint order.

    One-word keys are their own fingerprints, so equal fingerprints are
    repeats; wider keys' repeats are confirmed on the words.
    """
    order = fp.argsort()
    sfp = fp.take(order)
    starts = np.empty(len(fp), dtype=bool)
    starts[:1] = True
    np.not_equal(sfp[1:], sfp[:-1], out=starts[1:])
    if len(words) > 1:
        repeats = np.logical_not(starts).nonzero()[0]  # sorted positions sharing the fingerprint before them
        if len(repeats) and (
            words.take(order.take(repeats), axis=1) != words.take(order.take(repeats - 1), axis=1)
        ).any():
            # distinct keys share a fingerprint: dedupe on the full words instead
            full = np.ascontiguousarray(words.T).view(np.dtype((np.void, 8 * len(words)))).ravel()
            _, first = np.unique(full, return_index=True)
            return first[np.argsort(fp[first], kind="stable")]
    return np.minimum.reduceat(order, starts.nonzero()[0]) if len(fp) else order


def _in_run(run_fp: np.ndarray, run_words: np.ndarray, fp: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Which keys are in a non-empty run sorted by fingerprint: one search.

    A match of one-word keys is the key itself.  A match of wider keys is
    confirmed on the words, only where the fingerprints matched, walking on
    through a run of keys that share the fingerprint.
    """
    at = run_fp.searchsorted(fp)
    found = run_fp.take(at, mode="clip") == fp  # a key above the whole run is compared with its last
    if len(words) == 1:
        return found
    match = found.nonzero()[0]
    pending = match[_differ(run_words.take(at.take(match), axis=1), words.take(match, axis=1))]
    found[pending] = False
    at = at.take(pending)
    while len(pending):  # fingerprint shared with another key: walk on through its run
        at += 1
        inside = at < len(run_fp)
        pending, at = pending[inside], at[inside]
        same_fp = run_fp.take(at) == fp.take(pending)
        pending, at = pending[same_fp], at[same_fp]
        differ = _differ(run_words.take(at, axis=1), words.take(pending, axis=1))
        found[pending[~differ]] = True
        pending, at = pending[differ], at[differ]
    return found


class _KeySet:
    """The keys found so far for the next generation, as sorted runs merged like a binary counter.

    Each run holds fingerprints in ascending order with their key words; a
    one-word run's words are a view of its fingerprints, so it holds each
    key once.  Runs are kept in decreasing size, so a generation of G keys
    has at most log2(G) + 1 runs and each of its keys is merged O(log G)
    times.  :meth:`run` makes the one run that serves generation d, then d - 1.
    No set ever holds more than one generation.  That is enough because LC_u is an
    involution (it keeps N(u), so it toggles the same pairs twice): if a
    child K = LC_u M of a member M of generation d lay in generation e, then
    M = LC_u K would put d at most e + 1.  So K lies in generation d - 1, d
    or d + 1, and the generations before d - 1 need no lookup.
    """

    def __init__(self):
        self.runs = []

    def add(self, fp: np.ndarray, words: np.ndarray) -> None:
        """Add keys not yet in the set, given in ascending fingerprint order."""
        if len(fp) == 0:
            return
        while self.runs and len(self.runs[-1][0]) <= len(fp):
            fp, words = _merge(*self.runs.pop(), fp, words)
        self.runs.append((fp, words))

    def run(self) -> tuple:
        """All the keys, at least one, as one run; the set is left empty."""
        fp, words = self.runs.pop()
        while self.runs:
            fp, words = _merge(*self.runs.pop(), fp, words)
        return fp, words


def _merge(fp: np.ndarray, words: np.ndarray, new_fp: np.ndarray, new_words: np.ndarray) -> tuple:
    """Merge two runs sorted by fingerprint into one, by scattering each into its merged positions.

    A one-word run moves its fingerprints alone: its words are a view of them.
    """
    at = fp.searchsorted(new_fp, side="right") + np.arange(len(new_fp))
    new = np.zeros(len(fp) + len(new_fp), dtype=bool)
    new[at] = True
    old = ~new
    merged_fp = np.empty(len(old), dtype=fp.dtype)
    merged_fp[at] = new_fp
    merged_fp[old] = fp
    if len(words) == 1:
        return merged_fp, merged_fp[None]
    merged_words = np.empty((len(words), len(old)), dtype=words.dtype)
    for merged, w, new_w in zip(merged_words, words, new_words):
        merged[at] = new_w
        merged[old] = w
    return merged_fp, merged_words


def _select(fp: np.ndarray, words: np.ndarray, which: np.ndarray) -> tuple:
    """The keys at the indices ``which`` as fingerprints and words.

    A one-word key's words are a view of its fingerprints, so only the
    fingerprints are taken.
    """
    fp = fp.take(which)
    return fp, fp[None] if len(words) == 1 else words.take(which, axis=1)


def _key_ints(words: np.ndarray) -> list[int]:
    """Python integers of the keys in a word array, most significant word first."""
    keys = []
    for start in range(0, words.shape[1], _BLOCK):
        block = words[:, start : start + _BLOCK]
        ints = block[0].tolist()
        for row in block[1:]:
            ints = [k << 64 | w for k, w in zip(ints, row.tolist())]
        keys += ints
    return keys


def _key_words(key: int, nwords: int) -> np.ndarray:
    return np.frombuffer(key.to_bytes(8 * nwords, "big"), ">u8").astype(np.uint64).reshape(nwords, 1)


def _first_inside(words: np.ndarray, outside: Optional[np.ndarray]) -> Optional[int]:
    """Position of the first key with no bit in ``outside`` (a column of one mask word per key word), if any."""
    if outside is None or not words.shape[1]:
        return None
    leaks = np.logical_or.reduce(words & outside, axis=0)
    first = leaks.argmin()
    return None if leaks[first] else int(first)


def _orbit_vector(g: SimpleGraph, budget: int, local_mask: Optional[int] = None) -> LcOrbit:
    """Breadth-first closure over whole generations of native-word key arrays.

    Each frontier member carries its key as W uint64 words, most significant
    first (stored word-major: one row of the array per word), and its
    adjacency rows in the narrowest unsigned type that holds n bits.  A
    child's key is its parent's words XOR the flip pattern of the
    complemented neighbourhood; a new member's rows come from its parent's
    rows.  Keys are deduplicated and looked up by one uint64 fingerprint per
    key.  A one-word key (n <= 11) is its own fingerprint: a match needs no
    confirming, and the runs hold it once.  A wider key's match is confirmed
    on the full words.  Each generation lists its new members in path order:
    by the position of the parent in the previous generation, then by the
    complemented vertex.  The ``parent * n + vertex`` origin of a member
    therefore spells its shortest, lexicographically least path.  The
    frontier is closed in batches of ``_BATCH`` members, one numpy step
    each, and the batch is the unit of the budget: a new key counts in the
    batch of its first occurrence, and a batch that passes the budget raises
    with the count after it.  So the work done past the budget is bounded by
    one batch.

    Most generations of a census-size search hold a few hundred keys, so a
    batch pays more for its numpy calls than for its work, and a step makes
    as few calls as it can: keys are taken by index, never through a 2-D
    mask; a wider key's fingerprint match is confirmed on the words only
    where it matched; a generation of one part is not concatenated; and a
    local seed returns before any array but its own key is built.

    Lookups touch only the neighbouring generations.  LC_u keeps N(u), so
    applying it twice toggles the same pairs twice: it is an involution.  If
    a child K = LC_u M of a member M of generation d lay in generation e,
    then M = LC_u K would give d <= e + 1, and breadth-first order gives
    e <= d + 1.  So a batch's distinct children are looked up in two runs
    sorted by fingerprint, one for generation d - 1 and one for d (the run
    its :class:`_KeySet` merged when d was first complemented), and in a
    :class:`_KeySet` of the keys found so far for d + 1.  Older generations
    keep only their key words, one array each.

    Children that cannot be new are not built.  Let member M come from its
    parent P by complementing at v, so N(v) is the same in P and M.  LC_u
    and LC_v commute when u != v and u is not in N(v): then v is not in
    N(u) either, neither complementation changes the other's neighbourhood,
    and each toggles the pairs inside its own.  Three kinds of child follow:

    * u = v gives LC_v M = P back;
    * u of degree at most one toggles no pair, so LC_u M = M;
    * u < v outside N(v) gives LC_v(LC_u P).  Q = LC_u P is reached by
      the path (path of P, u), which precedes M's path (path of P, v).  So
      either Q lies in an earlier generation, and LC_v Q in generation d or
      before, or Q precedes M in generation d, and its child LC_v Q
      precedes M's child LC_u M in path order.

    None of these is the first occurrence in path order of a key of
    generation d + 1, nor the first local child: P and M were tested when
    they were found.  So the skips change no member, generation, origin,
    path, hit or per-batch budget count.  Each member's keep mask, the
    vertices above v and the neighbours of v, comes with its rows; the seed
    keeps every vertex.

    With ``local_mask``, each batch's children are tested before they are
    deduplicated, and the search stops at the first child with no edge
    outside the mask: the first local member in path order.  Nothing of the
    hit's batch is stored, so it counts against no budget: a stopped orbit
    holds the keys of the batches before it.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    n = g.n
    if n > MAX_ORBIT_VERTICES:
        raise ValueError(f"orbit enumeration is limited to {MAX_ORBIT_VERTICES} vertices, got {n}")
    plan = _plan(n)
    seed_key = _pack_rows(g.rows, n)
    frontier = _key_words(seed_key, plan.nwords)
    outside = hit_key = hit_path = None
    if local_mask is not None:
        if not seed_key & ~local_mask:  # a local seed: nothing is searched
            return LcOrbit(g.labels, seed_key, frontier, [], seed_key, ())
        outside = _key_words(((1 << (n * (n - 1) // 2)) - 1) & ~local_mask, plan.nwords)
    rows = np.array([g.rows], dtype=plan.dtype)
    keep = np.array([(1 << n) - 1], dtype=plan.dtype)  # the seed has no parent to skip
    generations = [frontier]  # the keys of each generation, in path order
    near = [(_fingerprint(frontier), frontier)]  # generations d - 1 and d, each one run sorted by fingerprint
    found = _KeySet()  # the keys of generation d + 1 found so far
    stored = 1
    origins = []  # per generation after the seed: parent * n + vertex of each member
    no_origins = np.empty(0, dtype=np.intp)
    while hit_key is None and frontier.shape[1]:
        if origins:  # one generation on: the frontier's rows and keep masks, and the runs
            rows, keep = _complemented_rows(rows, origins[-1], plan)
            near = [near[-1], found.run()]
        new_words, new_origins = [], []
        for start in range(0, frontier.shape[1], _BATCH):
            step = slice(start, start + _BATCH)
            cand, at = _children(frontier[:, step], rows[step], keep[step], plan)
            hit = _first_inside(cand, outside)
            if hit is not None:
                # The first local child in path order ends the search.  It is
                # new: a generation that found a local key would have stopped there.
                hit_key = _key_ints(cand[:, hit : hit + 1])[0]
                hit_path = _path(origins, start * n + int(at[hit]), n)
                break
            fp = _fingerprint(cand)
            first = _distinct(fp, cand)
            fp, words = _select(fp, cand, first)
            for run in [*near, *found.runs]:
                new = np.logical_not(_in_run(*run, fp, words)).nonzero()[0]
                (fp, words), first = _select(fp, words, new), first.take(new)
            found.add(fp, words)
            stored += len(first)
            if stored > budget:
                raise OrbitBudgetError(budget, stored)
            first.sort()
            new_words.append(cand.take(first, axis=1))
            new_origins.append(at.take(first) + start * n)
        frontier = _joined(new_words, frontier[:, :0])
        generations.append(frontier)
        origins.append(_joined(new_origins, no_origins))
    return LcOrbit(g.labels, seed_key, _joined(generations, None), origins, hit_key, hit_path)


def _joined(parts: list, empty: Optional[np.ndarray]) -> np.ndarray:
    """The arrays in ``parts`` side by side along their last axis: one part is not copied, and none gives ``empty``."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts, axis=-1) if parts else empty


def _path(origins: list, origin: int, n: int) -> tuple:
    """The complementation path of the child ``parent * n + vertex`` of the last generation in ``origins``."""
    path = [origin % n]
    for generation in reversed(origins):
        origin = int(generation[origin // n])
        path.append(origin % n)
    return tuple(reversed(path))


def lc_orbit(g: SimpleGraph, budget: int = DEFAULT_ORBIT_BUDGET) -> LcOrbit:
    """Breadth-first closure of ``{g}`` under all local complementations.

    The orbit's :meth:`LcOrbit.paths` maps every member to its shortest,
    lexicographically least complementation path.  Exceeding ``budget``
    raises :class:`OrbitBudgetError`; that outcome means "instance too
    large", never "not found".
    """
    return _orbit_vector(g, budget)


def certify_nonlocal(
    g: SimpleGraph, allowed: SimpleGraph, budget: int = DEFAULT_ORBIT_BUDGET
) -> LcOrbit:
    """Enumerate the orbit of ``g`` until a member is a subgraph of ``allowed``.

    Returns the orbit, which carries the verdict: ``g`` is nonlocal exactly
    when the orbit is ``complete``.  Otherwise the orbit records the first
    local member in path order in ``hit_key`` and its path in ``hit_path``,
    and its ``members`` are only the keys found in the batches before the
    hit's (see :class:`LcOrbit`).  A local hit is replayed before it is
    returned, by the pure-Python ``local_complement_sequence`` on ``g``
    labelled by position, so independently of the engine's key words and
    masks; a replay that misses the hit's graph or leaves ``allowed`` raises
    :class:`CertificateError`.  Raises :class:`OrbitBudgetError` when the
    keys found in the batches before a hit's exceed the budget.
    """
    allowed = allowed.in_order(g.labels)
    orbit = _orbit_vector(g, budget, _pack_rows(allowed.rows, g.n))
    if orbit.complete:
        return orbit
    # Rows of a checked graph and of local_complement need no second check.
    by_position = SimpleGraph._derived(range(g.n), g.rows)  # the path lists vertex positions
    replayed = SimpleGraph._derived(g.labels, local_complement_sequence(by_position, orbit.hit_path).rows)
    if replayed != orbit.member_graph(orbit.hit_key) or not replayed.is_subgraph_of(allowed):
        raise CertificateError("internal error: the complementations do not replay to a local graph")
    return orbit

"""Sign-tracked Pauli strings, stabilizer tableaux and a dense state oracle.

A Pauli string on ``n`` qubits is stored in binary symplectic form as two bit
masks ``x`` and ``z`` plus a power of ``i``:

    P = i^phase * prod_j  X_j^{x_j} Z_j^{z_j}        (X to the left of Z)

With this convention ``Y = i * X Z``, so a Hermitian string ``s * (tensor of
sigma factors)`` has ``phase = (#Y + 2*[s = -1]) mod 4``.  All generators in
this package are Hermitian with sign +-1; the mod-4 phase only shows up
transiently while multiplying.

The dense oracle keeps full amplitude vectors (qubit ``j`` is bit ``j`` of the
basis index) and is capped at 14 qubits, comfortably above the largest check
needed anywhere in the package (9 qubits).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import gf2
from .graphs import SimpleGraph

STATE_VECTOR_MAX_QUBITS = 14
STABILIZED_TOL = 1e-10  # largest amplitude change a stabilizer may make in is_stabilized


class PauliString:
    __slots__ = ("n", "x", "z", "phase")

    def __init__(self, n: int, x: int, z: int, phase: int = 0):
        self.n = n
        self.x = x
        self.z = z
        self.phase = phase & 3
        if x >> n or z >> n:
            raise ValueError("x/z bits beyond qubit count")

    @classmethod
    def _derived(cls, n: int, x: int, z: int, phase: int) -> "PauliString":
        """A string valid by construction (x/z bits below ``n``, phase in 0..3): nothing is checked."""
        p = cls.__new__(cls)
        p.n, p.x, p.z, p.phase = n, x, z, phase
        return p

    @classmethod
    def from_sign(cls, n: int, x: int, z: int, sign: int = 1) -> "PauliString":
        """Hermitian string with explicit sign (+1 or -1)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        phase = ((x & z).bit_count() + (0 if sign == 1 else 2)) & 3
        return cls(n, x, z, phase)

    @classmethod
    def from_label(cls, label: str, sign: int = 1) -> "PauliString":
        """Build from a string like ``"XZIY"`` (qubit 0 first)."""
        x = z = 0
        for j, ch in enumerate(label.upper()):
            if ch in "XY":
                x |= 1 << j
            if ch in "ZY":
                z |= 1 << j
            if ch not in "IXYZ":
                raise ValueError(f"unknown Pauli letter {ch!r}")
        return cls.from_sign(len(label), x, z, sign)

    @property
    def sign(self) -> int:
        """+1 or -1 for Hermitian strings; raises on a residual factor of i."""
        rel = (self.phase - (self.x & self.z).bit_count()) & 3
        if rel == 0:
            return 1
        if rel == 2:
            return -1
        raise ValueError("Pauli string is not Hermitian (odd power of i)")

    def axis(self, j: int) -> str:
        xb, zb = (self.x >> j) & 1, (self.z >> j) & 1
        return "IXZY"[xb + 2 * zb] if not (xb and zb) else "Y"

    def label(self) -> str:
        body = "".join(self.axis(j) for j in range(self.n))
        return ("+" if self.sign == 1 else "-") + body

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        phase = (self.phase + other.phase + 2 * (self.z & other.x).bit_count()) & 3
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, phase)

    def commutes_with(self, other: "PauliString") -> bool:
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) % 2 == 0

    def hadamard(self, qubits_mask: int) -> "PauliString":
        """Conjugate by Hadamard gates on the masked qubits (X <-> Z)."""
        flips = (self.x & self.z & qubits_mask).bit_count()  # one -1 per Y
        x = (self.x & ~qubits_mask) | (self.z & qubits_mask)
        z = (self.z & ~qubits_mask) | (self.x & qubits_mask)
        return PauliString._derived(self.n, x, z, (self.phase + 2 * flips) & 3)

    def symplectic_row(self) -> int:
        """Packed (x | z) row for GF(2) rank work: z bits shifted above x bits."""
        return self.x | (self.z << self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PauliString)
            and (self.n, self.x, self.z, self.phase)
            == (other.n, other.x, other.z, other.phase)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z, self.phase))

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"


class Tableau:
    """An independent, pairwise commuting set of Hermitian Pauli generators.

    The constructor, where generators enter, checks all of this; operations
    that keep it build their results with :meth:`_derived`, which does not.
    """

    __slots__ = ("n_qubits", "generators")

    def __init__(self, n_qubits: int, generators: Sequence[PauliString]):
        self.n_qubits = n_qubits
        self.generators = gens = tuple(generators)
        for g in gens:
            if g.n != n_qubits:
                raise ValueError("generator qubit count mismatch")
            g.sign  # raises if not Hermitian
        # g, h anticommute iff |x_g & z_h| + |z_g & x_h| is odd: one AND with h's X/Z-swapped row.
        rows = [g.symplectic_row() for g in gens]
        swapped = [g.z | g.x << n_qubits for g in gens]
        for i, row in enumerate(rows):
            for j in range(i + 1, len(gens)):
                if (row & swapped[j]).bit_count() & 1:
                    raise ValueError(f"generators do not commute: {gens[i].label()} vs {gens[j].label()}")
        if gf2.rank(gf2.BitMatrix(rows, 2 * n_qubits)) != len(gens):
            raise ValueError("generators are not independent over GF(2)")

    @classmethod
    def _derived(cls, n_qubits: int, generators: Sequence[PauliString]) -> "Tableau":
        """A tableau of generators valid by construction: nothing is checked."""
        t = cls.__new__(cls)
        t.n_qubits, t.generators = n_qubits, tuple(generators)
        return t

    @property
    def rank(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        return f"Tableau({[g.label() for g in self.generators]})"


def graph_stabilizer(g: SimpleGraph) -> Tableau:
    """Generators X_v * prod_{w in N_v} Z_w, one per vertex, all signs +1.

    ``SimpleGraph`` checks that the adjacency is symmetric and loop-free, so
    they commute and have no Y factor (phase 0); the identity X-block makes
    them independent.
    """
    n = g.n
    return Tableau._derived(n, [PauliString._derived(n, 1 << v, g.rows[v], 0) for v in range(n)])


def conjugate_hadamard(t: Tableau, qubits: Iterable[int]) -> Tableau:
    """Conjugate every generator by Hadamards on the listed qubit indices.

    A symplectic map: commutation and independence carry over from ``t``.
    """
    mask = 0
    for q in qubits:
        if not 0 <= q < t.n_qubits:
            raise ValueError(f"qubit index {q} out of range")
        mask |= 1 << q
    return Tableau._derived(t.n_qubits, [g.hadamard(mask) for g in t.generators])


def conjugate_by_pauli(t: Tableau, p: PauliString) -> Tableau:
    """Conjugate by a Pauli: each anticommuting generator flips its sign, nothing else."""
    if p.n != t.n_qubits:
        raise ValueError(f"a {p.n}-qubit Pauli cannot conjugate a {t.n_qubits}-qubit tableau")
    gens = []
    for g in t.generators:
        if g.commutes_with(p):
            gens.append(g)
        else:
            gens.append(PauliString(g.n, g.x, g.z, (g.phase + 2) & 3))
    return Tableau._derived(t.n_qubits, gens)


def is_graph_stabilizer(t: Tableau, g: SimpleGraph) -> bool:
    """True iff ``t`` generates the stabilizer group of the graph state of ``g``.

    That group has one element per X part x, the product of K_v = X_v Z_{N(v)}
    over v in x (Hein, Eisert and Briegel, PRA 69, 062311 (2004)).  So each
    generator must equal the product over its own X bits in ascending order,
    built by the rule of ``PauliString.__mul__``: a step times K_v adds 2 to
    the phase when bit v of the running Z part is set.  A tableau's
    generators are independent and commute (checked where they entered, kept
    by every derivation), so ``g.n`` of them in the group generate all of it.
    """
    if t.n_qubits != g.n:
        raise ValueError("qubit counts differ")
    if t.rank != g.n:
        return False
    rows = g.rows
    for p in t.generators:
        x, z, phase = p.x, 0, 0
        while x:
            v = (x & -x).bit_length() - 1
            phase += 2 * ((z >> v) & 1)
            z ^= rows[v]
            x &= x - 1
        if z != p.z or phase & 3 != p.phase:
            return False
    return True


class StateVector:
    """Dense unit-norm amplitude vector over at most 14 qubits."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray):
        if n_qubits > STATE_VECTOR_MAX_QUBITS:
            raise ValueError(
                f"state vectors are capped at {STATE_VECTOR_MAX_QUBITS} qubits"
            )
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if amplitudes.shape != (1 << n_qubits,):
            raise ValueError("amplitude count must be 2^n")
        norm = float(np.linalg.norm(amplitudes))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector is not normalized (norm {norm})")
        self.n_qubits = n_qubits
        self.amplitudes = amplitudes

    def __repr__(self) -> str:
        return f"StateVector(n={self.n_qubits})"


def graph_state_vector(g: SimpleGraph) -> StateVector:
    """Start from all qubits in |+> and apply one controlled-Z per edge."""
    n = g.n
    if n > STATE_VECTOR_MAX_QUBITS:
        raise ValueError(f"graph too large for the dense oracle ({n} qubits)")
    amp = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=np.complex128)
    idx = np.arange(1 << n, dtype=np.uint32)
    for i in range(n):
        r = g.rows[i] >> (i + 1)
        for dj in range(r.bit_length()):
            if (r >> dj) & 1:
                j = i + 1 + dj
                both = ((idx >> i) & (idx >> j) & 1).astype(bool)
                amp[both] = -amp[both]
    return StateVector(n, amp)


def apply_pauli(p: PauliString, v: StateVector) -> StateVector:
    """Matrix-free application of a Pauli string to an amplitude vector."""
    if p.n != v.n_qubits:
        raise ValueError("dimension mismatch")
    idx = np.arange(1 << p.n, dtype=np.uint32)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & np.uint32(p.z)) & 1)
    out = np.empty_like(v.amplitudes)
    out[idx ^ np.uint32(p.x)] = (1j**p.phase) * signs * v.amplitudes
    return StateVector(v.n_qubits, out)


def apply_hadamard(v: StateVector, qubit: int) -> StateVector:
    """Apply a Hadamard gate to one qubit of an amplitude vector."""
    n = v.n_qubits
    if not 0 <= qubit < n:
        raise ValueError("qubit index out of range")
    amp = v.amplitudes.reshape([2] * n, order="F")
    lo = amp.take(0, axis=qubit)
    hi = amp.take(1, axis=qubit)
    new = np.stack([(lo + hi), (lo - hi)], axis=qubit) / np.sqrt(2.0)
    return StateVector(n, new.reshape(-1, order="F"))


def is_stabilized(v: StateVector, t: Tableau) -> bool:
    """True iff every generator of ``t`` fixes ``v`` within ``STABILIZED_TOL`` per amplitude."""
    if t.n_qubits != v.n_qubits:
        raise ValueError("dimension mismatch")
    for g in t.generators:
        moved = apply_pauli(g, v)
        if np.max(np.abs(moved.amplitudes - v.amplitudes)) > STABILIZED_TOL:
            return False
    return True

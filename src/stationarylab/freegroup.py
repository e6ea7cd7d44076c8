"""Exact arithmetic in finitely generated free groups.

Letters are order codes 0 .. 2*rank - 1 in the order a, a^-1, b, b^-1, ...:
generator i (1-based) is code 2(i - 1), its inverse is code 2(i - 1) + 1, and
the inverse of any code c is c ^ 1.  Words are immutable, always freely
reduced, and ordered length-first then lexicographically by code, which is
a < a^-1 < b < b^-1 < ...  Only this module does arithmetic on codes; other
modules take single letters from FreeGroupContext.generators() and inverses
from Word.inverse() or inverse_letters().

String form (used by every CLI flag, JSON config, and CSV cell): generators are
'a'..'z' by index, inverses the corresponding uppercase letters, and the
identity is the one-character string "1"; e.g. "abAB" = a b a^-1 b^-1.

Algebra elements, group laws and cylinder measures are tables keyed by letter
tuples (the `letters` of reduced words), multiplied by letter_product and
enumerated by ball_letters.  Word is the parse and print form, taken by
public constructors and returned by accessors.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (
    ContextMismatchError,
    MalformedInputError,
    ResourceLimitError,
    UndefinedAxisError,
)

T = TypeVar("T")


# the string form indexed by letter code: "aAbB..."
_CHARS = "".join(ch + ch.upper() for ch in string.ascii_lowercase)
_CODE_OF_CHAR = {ch: code for code, ch in enumerate(_CHARS)}
# the highest rank the string form can spell: one lowercase letter a generator
MAX_STRING_RANK = len(string.ascii_lowercase)
# ball_letters enumerates no ball whose words times (radius + 1), a bound on its
# letters plus one a word, pass this cap: over 7 times the largest ball that the
# tests and benchmark jobs read (rank 2, radius 10: 118,097 words).  A rank 1 ball
# holds few words but long ones, so a word count alone would not bound its memory.
MAX_BALL_LETTERS = 10_000_000


def inverse_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """Letters of the inverse word: the reversed sequence of inverse letters."""
    return tuple([c ^ 1 for c in reversed(letters)])


def _product_letters(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of the product of two reduced words: cancel at the junction."""
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] == b[j] ^ 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence (cancel adjacent g g^-1 pairs)."""
    stack: list[int] = []
    for c in letters:
        if c < 0:
            raise MalformedInputError(f"letter code {c} is not a generator")
        if stack and stack[-1] == c ^ 1:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


class Word:
    """A freely reduced word in F_rank. Immutable; the empty word is the identity."""

    __slots__ = ("letters", "rank", "_hash")

    def __init__(self, letters: Iterable[int], rank: int):
        lt = reduce_letters(letters)
        if lt and max(lt) >= 2 * rank:
            raise MalformedInputError(f"letter {max(lt)} out of range for rank {rank}")
        _set_letters(self, lt)
        _set_rank(self, rank)
        _set_hash(self, hash((rank, lt)))

    def __setattr__(self, *args):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.rank == other.rank
            and self.letters == other.letters
        )

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.rank != other.rank:
            raise ContextMismatchError(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )
        return _word(_product_letters(self.letters, other.letters), self.rank)

    def inverse(self) -> "Word":
        return _word(inverse_letters(self.letters), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = _word((), self.rank)
        for _ in range(n):
            out = out * self
        return out

    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        if self.rank > MAX_STRING_RANK:
            raise MalformedInputError(f"string form supports rank <= {MAX_STRING_RANK}")
        return "".join([_CHARS[c] for c in self.letters])

    def __repr__(self) -> str:
        return f"Word('{self}', rank={self.rank})"


# the slot setters bypass Word.__setattr__, which refuses every assignment
_set_letters = Word.letters.__set__
_set_rank = Word.rank.__set__
_set_hash = Word._hash.__set__


def _word(letters: tuple[int, ...], rank: int) -> Word:
    """The Word of reduced letters with codes below 2 * rank, unchecked."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_rank(w, rank)
    _set_hash(w, hash((rank, letters)))
    return w


@dataclass(frozen=True)
class FreeGroupContext:
    """Fixes the ambient free group F_rank for a computation."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise MalformedInputError(f"rank must be >= 1, got {self.rank}")

    @property
    def identity(self) -> Word:
        return _word((), self.rank)

    def generator(self, index: int, sign: int = 1) -> Word:
        if not 1 <= index <= self.rank:
            raise MalformedInputError(f"generator index {index} out of rank {self.rank}")
        if sign not in (1, -1):
            raise MalformedInputError(f"sign must be +-1, got {sign}")
        return _word((2 * (index - 1) + (sign < 0),), self.rank)

    def generators(self) -> list[Word]:
        """All 2*rank single-letter words in the fixed order a, a^-1, b, b^-1, ..."""
        out = []
        for i in range(1, self.rank + 1):
            out.append(self.generator(i, 1))
            out.append(self.generator(i, -1))
        return out

    def word(self, spec: str | Iterable[int]) -> Word:
        if isinstance(spec, str):
            return word_from_str(spec, self.rank)
        return Word(spec, self.rank)

    def sphere_size(self, n: int) -> int:
        if n == 0:
            return 1
        return 2 * self.rank * (2 * self.rank - 1) ** (n - 1)

    def ball_size(self, radius: int) -> int:
        return sum(self.sphere_size(n) for n in range(radius + 1))


def word_from_str(s: str, rank: int) -> Word:
    """Parse the serialization format: 'abA' etc., '1' for the identity."""
    if s == "1":
        return _word((), rank)
    try:
        codes = [_CODE_OF_CHAR[ch] for ch in s]
    except KeyError as exc:
        raise MalformedInputError(f"bad character {exc.args[0]!r} in word {s!r}") from None
    return Word(codes, rank)


def length_lex(table: Mapping[tuple[int, ...], T]) -> list[tuple[tuple[int, ...], T]]:
    """Items of a table keyed by letter tuples, in length-lex word order."""
    keys = sorted(table)
    keys.sort(key=len)
    return [(w, table[w]) for w in keys]


def letter_product(
    x: Mapping[tuple[int, ...], T],
    y: Mapping[tuple[int, ...], T],
    support_cap: int,
    cap_message: str,
) -> dict[tuple[int, ...], T]:
    """out(w) = sum over u v = w of x(u) y(v), for finitely supported tables
    keyed by the letters of reduced words.

    Both tables are sorted once into length-lex word order and the sum runs
    over u, then v, in that order, so results are bit-stable run to run.
    Raises ResourceLimitError(cap_message) once the support passes the cap.
    """
    ys = length_lex(y)
    out: dict[tuple[int, ...], T] = {}
    get = out.get
    for a, cu in length_lex(x):
        for b, cv in ys:
            w = _product_letters(a, b)
            out[w] = get(w, 0) + cu * cv
            if len(out) > support_cap:
                raise ResourceLimitError(cap_message, support_cap)
    return out


def conjugate(g: Word, h: Word) -> Word:
    """h^-1 g h."""
    if g.rank != h.rank:
        raise ContextMismatchError(f"rank mismatch: {g.rank} vs {h.rank}")
    hl = h.letters
    return _word(_product_letters(_product_letters(inverse_letters(hl), g.letters), hl), g.rank)


def ball_letters(rank: int, radius: int) -> Iterator[tuple[int, ...]]:
    """Letters of every reduced word of length <= radius, once each, in length-lex order.

    ResourceLimitError, before the first word, if its words times (radius + 1)
    pass MAX_BALL_LETTERS.
    """
    if radius < 0:
        raise MalformedInputError(f"radius must be >= 0, got {radius}")
    if rank == 1:
        size = 1 + 2 * radius
    else:  # over 2^radius words, so the exponent can stop at the cap's bit length
        r = min(radius, MAX_BALL_LETTERS.bit_length())
        size = (rank * (2 * rank - 1) ** r - 1) // (rank - 1)
    if size * (radius + 1) > MAX_BALL_LETTERS:
        raise ResourceLimitError(f"the ball of radius {radius} in rank {rank} is too large",
                                 MAX_BALL_LETTERS)
    yield ()
    codes = range(2 * rank)
    layer = [()]
    for _ in range(radius):
        layer = [tail + (c,) for tail in layer for c in codes if not tail or tail[-1] != c ^ 1]
        yield from layer


def ball(context: FreeGroupContext, radius: int) -> Iterator[Word]:
    """Yield every reduced word of length <= radius once, in length-lex order."""
    rank = context.rank
    return (_word(lt, rank) for lt in ball_letters(rank, radius))


def _cyclic_split(letters: tuple[int, ...]) -> int:
    """The length of w in the reduced word w c w^-1 with c cyclically reduced."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == letters[j - 1] ^ 1:
        i += 1
        j -= 1
    return i


def cyclic_reduction(g: Word) -> tuple[Word, Word]:
    """Split g = w c w^-1 with c cyclically reduced; returns (w, c)."""
    lt = g.letters
    i = _cyclic_split(lt)
    return _word(lt[:i], g.rank), _word(lt[i : len(lt) - i], g.rank)


def axis_prefix(g: Word, depth: int) -> Word:
    """First `depth` letters of the attracting boundary point g g g ...

    With g = w c w^-1 (c cyclically reduced), the limit point reads
    w c c c ..., which is reduced as written.
    """
    if g.is_identity():
        raise UndefinedAxisError("the identity fixes no boundary axis")
    if depth < 0:
        raise MalformedInputError(f"depth must be >= 0, got {depth}")
    lt = g.letters
    i = _cyclic_split(lt)
    out = list(lt[: min(i, depth)])
    c = lt[i : len(lt) - i]
    while len(out) < depth:
        out.extend(c[: depth - len(out)])
    return _word(tuple(out), g.rank)


# ---------------------------------------------------------------------------
# finite quotients (unitary images of the generators)
# ---------------------------------------------------------------------------


class FiniteQuotient:
    """A homomorphism F_rank -> U(m) given by the images of the generators.

    Images may be permutations of {0..m-1} (converted to permutation matrices)
    or explicit unitary matrices.
    """

    def __init__(self, rank: int, images: Sequence[np.ndarray], tol: float = 1e-10):
        if len(images) != rank:
            raise MalformedInputError(
                f"need {rank} generator images, got {len(images)}"
            )
        mats = [np.asarray(U, dtype=complex) for U in images]
        m = mats[0].shape[0]
        for U in mats:
            if U.shape != (m, m):
                raise MalformedInputError("generator images must share one dimension")
            if np.max(np.abs(U @ U.conj().T - np.eye(m))) > tol:
                raise MalformedInputError("generator image is not unitary")
        self.rank = rank
        self.dim = m
        self._images = mats

    @staticmethod
    def from_permutations(rank: int, perms: Sequence[Sequence[int]]) -> "FiniteQuotient":
        """Images given as permutations p of {0..m-1}; generator i sends e_j to e_p[j]."""
        mats = []
        for p in perms:
            m = len(p)
            U = np.zeros((m, m))
            for j, pj in enumerate(p):
                U[pj, j] = 1.0
            mats.append(U)
        return FiniteQuotient(rank, mats)

    @staticmethod
    def regular_from_permutations(
        rank: int, perms: Sequence[Sequence[int]]
    ) -> "FiniteQuotient":
        """Left regular representation of the finite group the images generate."""
        perms = [tuple(p) for p in perms]
        m0 = len(perms[0])
        ident = tuple(range(m0))

        def compose(p, q):  # (p o q)(i) = p(q(i))
            return tuple(p[q[i]] for i in range(m0))

        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for p in perms:
                    h = compose(p, g)
                    if h not in elems:
                        elems.add(h)
                        nxt.append(h)
            frontier = nxt
        order = sorted(elems)
        index = {g: i for i, g in enumerate(order)}
        images = []
        for p in perms:
            U = np.zeros((len(order), len(order)))
            for g in order:
                U[index[compose(p, g)], index[g]] = 1.0
            images.append(U)
        return FiniteQuotient(rank, images)

    def evaluate(self, w: Word) -> np.ndarray:
        """Image of a word; the image of g^-1 is the adjoint of the image of g."""
        if w.rank != self.rank:
            raise ContextMismatchError(
                f"word rank {w.rank} does not match quotient rank {self.rank}"
            )
        out = np.eye(self.dim, dtype=complex)
        for c in w.letters:
            U = self._images[c >> 1]
            out = out @ (U.conj().T if c & 1 else U)
        return out


# ---------------------------------------------------------------------------
# free basis of a finitely generated subgroup (graph folding)
# ---------------------------------------------------------------------------


class FreeBasisDecomposition(NamedTuple):
    """Free basis of the subgroup generated by `words`, with rewrites.

    basis: one reduced ambient word per basis element.
    rewritten: for each input word, its reduced expression over the basis
               (tuple of signed 1-based basis indices).
    """

    basis: list[Word]
    rewritten: list[tuple[int, ...]]


def free_basis_decomposition(words: Sequence[Word]) -> FreeBasisDecomposition:
    """Fold the wedge of loops spelled by `words` and read off a free basis.

    Every input word is a loop at the base vertex of the folded graph; the
    non-tree edges of a spanning tree form a free basis of the subgroup the
    words generate, and tracing each loop through the graph rewrites it over
    that basis.

    The graph stays folded after each loop is added: a loop first follows
    existing edges from the base for its longest prefix and, backwards from
    the base, for its longest remaining suffix, so new vertices are made only
    for the middle, and any folds its closing edge forces are made at once.
    Folding is confluent, so the graph, the basis and the rewrites do not
    depend on the order of the words.
    """
    words = list(words)
    if not words:
        return FreeBasisDecomposition([], [])
    rank = words[0].rank

    # union-find over vertices; adj[v] maps a letter to the far end of the
    # edge leaving v with that label (a stale vertex id, resolved by find)
    parent: list[int] = [0]
    adj: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int, int]] = []  # edges to attach: (from, label, to)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def merge(x: int, y: int) -> None:
        if len(adj[x]) < len(adj[y]):
            x, y = y, x
        parent[y] = x
        moved = adj[y]
        adj[y] = {}
        for lab, t in moved.items():
            pending.append((x, lab, t))

    def fold() -> None:
        while pending:
            u, lab, v = pending.pop()
            u, v = find(u), find(v)
            cur = adj[u].get(lab)
            if cur is None:
                adj[u][lab] = v
                pending.append((v, lab ^ 1, u))
            else:
                cur = find(cur)
                adj[u][lab] = cur
                if cur != v:
                    merge(cur, v)

    for w in words:
        lt = w.letters
        n = len(lt)
        start = find(0)
        v, i = start, 0
        while i < n and lt[i] in adj[v]:
            v = find(adj[v][lt[i]])
            i += 1
        u, j = start, n
        while j > i and lt[j - 1] ^ 1 in adj[u]:
            u = find(adj[u][lt[j - 1] ^ 1])
            j -= 1
        if i == j:
            if u != v:
                merge(u, v)
        else:
            # fresh vertices for lt[i + 1 .. j - 1]; only the closing edge
            # into u can meet an existing edge
            for c in lt[i : j - 1]:
                x = len(parent)
                parent.append(x)
                adj.append({c ^ 1: v})
                adj[v][c] = x
                v = x
            pending.append((v, lt[j - 1], u))
        fold()

    # spanning tree by BFS in letter order from the base; the readout visits
    # vertices in BFS order, so it depends on the folded graph only
    root = find(0)
    tree = {root: None}  # vertex -> (parent vertex, label read)
    path = {root: ()}  # vertex -> letters of its tree path from the root
    order = [root]
    for u in order:
        adj[u] = {lab: find(t) for lab, t in sorted(adj[u].items())}
        for lab, v in adj[u].items():
            if v not in tree:
                tree[v] = (u, lab)
                path[v] = path[u] + (lab,)
                order.append(v)

    # non-tree edges, one orientation each, in BFS-then-letter order;
    # step[u][lab] is the signed basis number read along the edge u -lab->
    # (absent on tree edges)
    step: dict[int, dict[int, int]] = {u: {} for u in order}
    basis_words: list[Word] = []
    for u in order:
        for lab, v in adj[u].items():
            if lab in step[u] or tree[v] == (u, lab) or tree[u] == (v, lab ^ 1):
                continue
            # reduced as written: the graph is folded and the edge is not a
            # tree edge, so neither junction cancels
            basis_words.append(_word(path[u] + (lab,) + inverse_letters(path[v]), rank))
            step[u][lab] = len(basis_words)
            step[v][lab ^ 1] = -len(basis_words)

    rewritten = []
    for w in words:
        v = root
        out: list[int] = []
        for c in w.letters:
            s = step[v].get(c)
            if s:
                if out and out[-1] == -s:
                    out.pop()
                else:
                    out.append(s)
            v = adj[v][c]
        rewritten.append(tuple(out))
    return FreeBasisDecomposition(basis_words, rewritten)

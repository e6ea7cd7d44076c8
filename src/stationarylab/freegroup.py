"""Exact arithmetic in finitely generated free groups.

Letters are order codes 0 .. 2*rank - 1 in the order a, a^-1, b, b^-1, ...:
generator i (1-based) is code 2(i - 1), its inverse is code 2(i - 1) + 1, and
the inverse of any code c is c ^ 1.  Words are immutable, always freely
reduced, and ordered length-first then lexicographically by code, which is
a < a^-1 < b < b^-1 < ...  Words are reduced, multiplied and inverted only
here.  Six kernels elsewhere compute with raw codes (c ^ 1 for an inverse,
c & 1 for the sign, bytes((c,)) for a letter): `boundary._compile_gathers` and
`_harmonic_measure`, `CylinderMeasure.top_mass`, `GroupMeasure.is_generating`,
`algebra._self_adjoint_on_generators` and `norm_upper_bound`.  The rest take
single letters from FreeGroupContext.generators() and inverses from
Word.inverse() or inverse_letters().

String form (used by every CLI flag, JSON config, and CSV cell): generators are
'a'..'z' by index, inverses the corresponding uppercase letters, and the
identity is the one-character string "1"; e.g. "abAB" = a b a^-1 b^-1.
word_from_str is its one reader.

Operands of one computation live in one F_k: every check that two ranks
match calls `_same_rank`, the one place ContextMismatchError is raised.

A word's `letters` are the `bytes` of its codes, one byte a letter, so ranks
go up to MAX_RANK = 128.  Algebra elements, group laws and cylinder measures
are tables keyed by these bytes, multiplied by letter_product and enumerated
by ball_letters.  A bytes key caches its hash and is compared, sliced and
joined in C; indexing it gives the int codes.  Bytes compare code by code, so
a plain sort then a stable sort by length gives the length-lex order.  Their
hashes change with PYTHONHASHSEED, so no output may read the order of a set
of them.  Word is the parse and print form, taken by public constructors and
returned by accessors.
"""

from __future__ import annotations

import string
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, takewhile
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

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
# the highest rank whose letter codes, 0 .. 2 * rank - 1, each fit in one byte
MAX_RANK = 128
# ball_letters enumerates no ball whose words times (radius + 1), a bound on its
# letters plus one a word, pass this cap: over 7 times the largest ball that the
# tests and benchmark jobs read (rank 2, radius 10: 118,097 words).  A rank 1 ball
# holds few words but long ones, so a word count alone would not bound its memory.
MAX_BALL_LETTERS = 10_000_000
# the largest support of a product (letter_product and the sums in algebra and walks)
SUPPORT_CAP = 5_000_000


# byte c -> c ^ 1, the code of the inverse letter
_INVERSE = bytes(c ^ 1 for c in range(256))


def inverse_letters(letters: bytes) -> bytes:
    """Letters of the inverse word: the reversed sequence of inverse letters."""
    return letters.translate(_INVERSE)[::-1]


def _product_letters(a: bytes, b: bytes) -> bytes:
    """Letters of the product of two reduced words: cancel at the junction."""
    i, j, n = len(a), 0, len(b)
    while i and j < n and a[i - 1] == b[j] ^ 1:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def _push_letters(stack: bytearray, letters: bytes) -> int:
    """Multiply the reduced word on the letter stack by these letters in
    place, each letter popping the one it cancels or else pushed.  Returns
    the least height the stack passed."""
    low = len(stack)
    for c in letters:
        if stack and stack[-1] == c ^ 1:
            stack.pop()
            if len(stack) < low:
                low = len(stack)
        else:
            stack.append(c)
    return low


def reduce_letters(letters: Iterable[int]) -> bytes:
    """Freely reduce a letter sequence (cancel adjacent g g^-1 pairs).
    MalformedInputError for a code outside 0 .. 255."""
    codes = list(letters)
    for c in codes:
        if not 0 <= c < 2 * MAX_RANK:
            raise MalformedInputError(f"letter code {c} is not a generator")
    stack = bytearray()
    _push_letters(stack, codes)
    return bytes(stack)


def _is_int(value) -> bool:
    """The integer rule for a value the program is given: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rank(rank: int) -> None:
    if not 1 <= rank <= MAX_RANK:
        raise MalformedInputError(f"rank must be in 1..{MAX_RANK}, got {rank}")


def _same_rank(rank: int, expected: int) -> None:
    """The one rank-match rule, for operands that must live in one F_k:
    ContextMismatchError "rank mismatch: {rank} vs {expected}" unless equal."""
    if rank != expected:
        raise ContextMismatchError(f"rank mismatch: {rank} vs {expected}")


class Word:
    """A freely reduced word in F_rank. Immutable; the empty word is the identity."""

    __slots__ = ("letters", "rank", "_hash")

    def __init__(self, letters: Iterable[int], rank: int):
        _check_rank(rank)
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
        _same_rank(self.rank, other.rank)
        return _word(_product_letters(self.letters, other.letters), self.rank)

    def inverse(self) -> "Word":
        return _word(inverse_letters(self.letters), self.rank)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = _word(b"", self.rank)
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


def _word(letters: bytes, rank: int) -> Word:
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
        _check_rank(self.rank)

    @property
    def identity(self) -> Word:
        return _word(b"", self.rank)

    def generator(self, index: int, sign: int = 1) -> Word:
        if not 1 <= index <= self.rank:
            raise MalformedInputError(f"generator index {index} out of rank {self.rank}")
        if sign not in (1, -1):
            raise MalformedInputError(f"sign must be +-1, got {sign}")
        return _word(bytes((2 * (index - 1) + (sign < 0),)), self.rank)

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

    def ball_size(self, radius: int) -> int:
        return _ball_size(self.rank, radius)


def _ball_size(rank: int, radius: int) -> int:
    """The number of reduced words of length <= radius in F_rank."""
    if rank == 1:
        return 1 + 2 * radius
    return (rank * (2 * rank - 1) ** radius - 1) // (rank - 1)


def _sphere_size(rank: int, radius: int) -> int:
    """The number of reduced words of length exactly radius in F_rank."""
    return _ball_size(rank, radius) - (_ball_size(rank, radius - 1) if radius else 0)


def word_from_str(s: str, rank: int) -> Word:
    """Parse the serialization format: 'abA' etc., '1' for the identity.
    The one reader of the string form: MalformedInputError for anything
    that is not a str, a bad character or a rank outside 1..MAX_RANK."""
    if not isinstance(s, str):
        raise MalformedInputError(f"expected a word string, got {s!r}")
    if s == "1":
        _check_rank(rank)
        return _word(b"", rank)
    try:
        codes = [_CODE_OF_CHAR[ch] for ch in s]
    except KeyError as exc:
        raise MalformedInputError(f"bad character {exc.args[0]!r} in word {s!r}") from None
    return Word(codes, rank)


def length_lex(table: Mapping[bytes, T]) -> list[tuple[bytes, T]]:
    """Items of a table keyed by letters, in length-lex word order."""
    keys = sorted(table)
    keys.sort(key=len)
    return [(w, table[w]) for w in keys]


def _check_support(count: int, message: str = "convolution support exceeds the cap") -> None:
    """ResourceLimitError(message, SUPPORT_CAP) if count passes SUPPORT_CAP.

    The one place a count meets the cap: a product's words, the index pairs
    of a regular representation or of fdstates, odd-moment lookups, the
    generation test's saturation work, the Cesaro support and pdf-check's
    Gram entries.  A product's words are checked as they grow; every other
    count before its work starts.
    """
    if count > SUPPORT_CAP:
        raise ResourceLimitError(message, SUPPORT_CAP)


def letter_product(x: Mapping[bytes, T], y: Mapping[bytes, T]) -> dict[bytes, T]:
    """out(w) = sum over u v = w of x(u) y(v), for finitely supported tables
    keyed by the letters of reduced words.

    Both tables are sorted once into length-lex word order and the sum runs
    over u, then v, in that order, so results are bit-stable run to run.
    Raises ResourceLimitError if the support passes SUPPORT_CAP; the support
    only grows, so it is checked once per u, after at most |y| more words.
    """
    ys = length_lex(y)
    out: dict[bytes, T] = {}
    get = out.get
    for a, cu in length_lex(x):
        # the first letter of a v that cancels against u; -1 matches no letter
        cancels = a[-1] ^ 1 if a else -1
        for b, cv in ys:
            w = _product_letters(a, b) if b and b[0] == cancels else a + b
            out[w] = get(w, 0) + cu * cv
        _check_support(len(out))
    return out


def letter_product_pieces(
        *pairs: tuple[Mapping[bytes, int], Mapping[bytes, int]]
) -> Iterator[tuple[bytes, list[dict[bytes, int]]]]:
    """The tables letter_product(x, y) of the pairs (x, y) of integer
    tables, in disjoint pieces: one per value p of w[:2] over their words w
    (the whole word when shorter), as (p, [each pair's piece at p, {} if
    none]) in sorted order of p.  Each piece is formed only when the next p
    is asked for, so a caller that drops each after reading it holds one
    piece a pair, never a table.

    A pair (u, v) in which at least two letters of u survive cancellation
    gives a word that starts with u[:2], so the piece of a two-letter p is
    formed from the words u of x that start with p.  Fewer than two letters
    of u survive only when |u| < 2 or v starts with u[1:]^-1 (u is r v[:k]^-1
    with |r| < 2, and u v is r v[k:]); those few pairs are summed up front,
    their v found as one run of y's words in sorted order.  A coefficient is
    the sum of the same products as in letter_product, in another order, so
    it is the same only for integer tables: float ones would round apart.
    Raises ResourceLimitError, as letter_product does, once the words of one
    product pass SUPPORT_CAP, checked after the few pairs and once per u.
    """
    plans = []
    for x, y in pairs:
        # sorted, the words v that start with a given q are one run
        ys = sorted(y.items())
        vs = [v for v, _ in ys]
        groups: dict[bytes, list[tuple[bytes, int]]] = {}
        few_pieces: dict[bytes, dict[bytes, int]] = {}
        for u, cu in x.items():
            if len(u) >= 2:
                groups.setdefault(u[:2], []).append((u, cu))
                q = inverse_letters(u[1:])
                few = takewhile(lambda item: item[0].startswith(q),
                                islice(ys, bisect_left(vs, q), None))
            else:
                few = ys
            for v, cv in few:
                w = _product_letters(u, v)
                piece = few_pieces.setdefault(w[:2], {})
                piece[w] = piece.get(w, 0) + cu * cv
        plans.append((ys, groups, few_pieces))
    # the words of each product so far
    touched = [sum(map(len, few_pieces.values())) for _, _, few_pieces in plans]
    _check_support(max(touched, default=0))
    keys = set().union(*(groups.keys() | few_pieces.keys() for _, groups, few_pieces in plans))
    for p in sorted(keys):
        pieces = []
        for i, (ys, groups, few_pieces) in enumerate(plans):
            out = few_pieces.pop(p, {})
            get = out.get
            for u, cu in groups.get(p, ()):
                n = len(out)
                cancels = u[-1] ^ 1
                for v, cv in ys:
                    if v and v[0] == cancels:
                        w = _product_letters(u, v)
                        if not w.startswith(p):  # one of the few pairs, summed above
                            continue
                    else:
                        w = u + v
                    out[w] = get(w, 0) + cu * cv
                touched[i] += len(out) - n
                _check_support(touched[i])
            pieces.append(out)
        if any(pieces):  # else every pair at p was one of the few
            yield p, pieces


def conjugate(g: Word, h: Word) -> Word:
    """h^-1 g h."""
    _same_rank(g.rank, h.rank)
    hl = h.letters
    return _word(_product_letters(_product_letters(inverse_letters(hl), g.letters), hl), g.rank)


def _check_ball(rank: int, radius: int, why: str = "") -> None:
    """ResourceLimitError if the ball's words times (radius + 1) pass
    MAX_BALL_LETTERS; MalformedInputError for a negative radius.  `why`
    prefixes the message, to say where a radius the caller derived comes from."""
    if radius < 0:
        raise MalformedInputError(f"radius must be >= 0, got {radius}")
    # a ball of rank >= 2 holds over 2^radius words: its radius stops at the cap's bit length
    size = _ball_size(rank, radius if rank == 1 else min(radius, MAX_BALL_LETTERS.bit_length()))
    if size * (radius + 1) > MAX_BALL_LETTERS:
        raise ResourceLimitError(f"{why}the ball of radius {radius} in rank {rank} is too large",
                                 MAX_BALL_LETTERS)


def ball_letters(rank: int, radius: int) -> Iterator[bytes]:
    """Letters of every reduced word of length <= radius, once each, in length-lex order.

    Raises as _check_ball does, before the first word.
    """
    _check_ball(rank, radius)
    yield b""
    letters = [(c ^ 1, bytes((c,))) for c in range(2 * rank)]
    layer = [b""]
    for _ in range(radius):
        layer = [tail + s for tail in layer for inv, s in letters if not tail or tail[-1] != inv]
        yield from layer


def ball(context: FreeGroupContext, radius: int) -> Iterator[Word]:
    """Yield every reduced word of length <= radius once, in length-lex order."""
    rank = context.rank
    return (_word(lt, rank) for lt in ball_letters(rank, radius))


def _cyclic_split(letters: bytes) -> int:
    """The length of w in the reduced word w c w^-1 with c cyclically reduced."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == letters[j - 1] ^ 1:
        i += 1
        j -= 1
    return i


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
    out = lt[: min(i, depth)]
    c = lt[i : len(lt) - i]
    while len(out) < depth:
        out += c[: depth - len(out)]
    return _word(out, g.rank)


# ---------------------------------------------------------------------------
# finite quotients (permutation images of the generators)
# ---------------------------------------------------------------------------


class FiniteQuotient:
    """A homomorphism F_rank -> Sym(m) given by the images of the generators.

    `perms[i]` is the image of generator i + 1: a permutation p of range(m)
    that sends point j to p[j], so the generator's matrix U has U e_j = e_p[j].
    Raises MalformedInputError on a rank outside 1..MAX_RANK and, naming the
    generator, on an image that is not a list or tuple of ints forming a
    permutation of one range(m), m >= 1.
    """

    def __init__(self, rank: int, perms: Sequence[Sequence[int]]):
        _check_rank(rank)
        if len(perms) != rank:
            raise MalformedInputError(f"need {rank} generator images, got {len(perms)}")
        m = len(perms[0]) if perms and isinstance(perms[0], (list, tuple)) else 0
        for i, p in enumerate(perms, 1):
            if not (m and isinstance(p, (list, tuple))
                    and all(map(_is_int, p))
                    and sorted(p) == list(range(m))):
                want = f"range({m})" if m else "range(m) for an m >= 1"
                raise MalformedInputError(f"generator {i} image {p!r} is not a permutation of {want}")
        self.rank = rank
        self.dim = m
        self.perms = tuple(tuple(p) for p in perms)
        self._inverses = tuple(tuple(sorted(range(m), key=p.__getitem__)) for p in self.perms)

    @staticmethod
    def regular_from_permutations(
        rank: int, perms: Sequence[Sequence[int]]
    ) -> "FiniteQuotient":
        """Left regular representation of the finite group the images generate:
        its points are the group elements in sorted order, and generator i
        sends g to p_i o g.

        Raises ResourceLimitError at the first element whose count squared, the
        index pairs that finite_dim_stationary_states walks, passes SUPPORT_CAP.
        """
        gens = FiniteQuotient(rank, perms).perms
        ident = tuple(range(len(gens[0])))
        elems = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for p in gens:
                    h = tuple(p[k] for k in g)  # (p o g)(k) = p(g(k))
                    if h not in elems:
                        elems.add(h)
                        _check_support(len(elems) ** 2,
                                       "regular representation: index pairs exceed the cap")
                        nxt.append(h)
            frontier = nxt
        order = sorted(elems)
        index = {g: i for i, g in enumerate(order)}
        return FiniteQuotient(
            rank, [[index[tuple(p[k] for k in g)] for g in order] for p in gens]
        )

    def evaluate(self, w: Word) -> tuple[int, ...]:
        """Image of a word as a permutation: the letters' images composed as
        matrices multiply, so the last letter acts first; g^-1 maps to the
        inverse permutation."""
        _same_rank(w.rank, self.rank)
        out = tuple(range(self.dim))
        for c in w.letters:
            p = self._inverses[c >> 1] if c & 1 else self.perms[c >> 1]
            out = tuple(out[k] for k in p)
        return out


# ---------------------------------------------------------------------------
# rank of a finitely generated subgroup (graph folding)
# ---------------------------------------------------------------------------


def free_basis_decomposition(words: Sequence[Word]) -> int:
    """The rank of the subgroup that `words` generate: fold the wedge of
    loops they spell, and read E - V + 1 off the folded graph, at whose base
    vertex every input word is a loop.  So the words freely generate exactly
    when the rank equals their number.

    The graph stays folded after each loop is added: a loop first follows
    existing edges from the base for its longest prefix and, backwards from
    the base, for its longest remaining suffix, so new vertices are made only
    for the middle, and any folds its closing edge forces are made at once.
    Folding is confluent, so the rank does not depend on the order of the
    words.
    """
    # union-find over vertices; adj[v] maps a letter to the far end of the
    # edge leaving v with that label (a stale vertex id, resolved by find);
    # a merged vertex keeps an empty adj
    parent: list[int] = [0]
    adj: list[dict[int, int]] = [{}]
    pending: list[tuple[int, int, int]] = []  # edges to attach: (from, label, to)
    merges = 0

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def merge(x: int, y: int) -> None:
        nonlocal merges
        merges += 1
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
        # one dict.get a letter; find only when the id read is stale
        v, i = start, 0
        for c in lt:
            t = adj[v].get(c)
            if t is None:
                break
            v = t if parent[t] == t else find(t)
            i += 1
        u, j = start, n
        for c in inverse_letters(lt)[: n - i]:
            t = adj[u].get(c)
            if t is None:
                break
            u = t if parent[t] == t else find(t)
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

    # each edge is stored once from each end, and only live vertices hold any
    edges = sum(map(len, adj)) // 2
    return edges - (len(parent) - merges) + 1

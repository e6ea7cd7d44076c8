import ast
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stationarylab import freegroup
from stationarylab.errors import (
    ContextMismatchError,
    MalformedInputError,
    ResourceLimitError,
    UndefinedAxisError,
)
from stationarylab.freegroup import (
    FiniteQuotient,
    FreeGroupContext,
    Word,
    _cyclic_split,
    _product_letters,
    _sphere_size,
    axis_prefix,
    ball,
    ball_letters,
    conjugate,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
    reduce_letters,
    word_from_str,
)
from stationarylab.walks import rng_from_seed

from fold import reference_fold

F2 = FreeGroupContext(2)
F3 = FreeGroupContext(3)


def inverse_pair(x, y):
    """Code 2(i - 1) is generator i and code 2(i - 1) + 1 its inverse."""
    return x // 2 == y // 2 and x % 2 != y % 2


def one_pass_cancel(letters):
    out = []
    i = 0
    while i < len(letters):
        if i + 1 < len(letters) and inverse_pair(letters[i], letters[i + 1]):
            i += 2
        else:
            out.append(letters[i])
            i += 1
    return out


def reduce_oracle(letters):
    """Repeated single-pass cancellation until fixpoint."""
    cur = list(letters)
    while True:
        nxt = one_pass_cancel(cur)
        if nxt == cur:
            return cur
        cur = nxt


def random_word(rng, rank, length):
    return Word([int(j) for j in rng.integers(0, 2 * rank, size=length)], rank)


class TestReduce:
    def test_simple_cancellation(self):
        assert Word([0, 1], 2).is_identity()

    def test_inner_cancellation(self):
        a, b, B = 0, 2, 3
        assert Word([a, b, B, a], 2) == F2.word("aa")

    def test_matches_fixpoint_oracle(self):
        rng = rng_from_seed(11)
        for _ in range(500):
            raw = [int(i) for i in rng.integers(0, 4, size=20)]
            assert list(Word(raw, 2).letters) == reduce_oracle(raw)

    def test_idempotent(self):
        rng = rng_from_seed(12)
        for _ in range(200):
            w = random_word(rng, 2, 15)
            assert Word(w.letters, 2) == w

    def test_out_of_rank_letter_rejected(self):
        with pytest.raises(MalformedInputError):
            Word([0, 4], 2)
        with pytest.raises(MalformedInputError):
            Word([-1], 2)
        with pytest.raises(MalformedInputError):
            F2.generator(1, 0)


class TestMultiply:
    def test_identity_law(self):
        v = F2.word("abA")
        assert F2.identity * v == v
        assert v * F2.identity == v

    def test_junction_cancellation(self):
        assert F2.word("ab") * F2.word("Ba") == F2.word("aa")

    def test_group_laws_random_triples(self):
        rng = rng_from_seed(13)
        for _ in range(10_000):
            u = random_word(rng, 2, int(rng.integers(0, 9)))
            v = random_word(rng, 2, int(rng.integers(0, 9)))
            w = random_word(rng, 2, int(rng.integers(0, 9)))
            assert (u * v) * w == u * (v * w)
        for _ in range(200):
            u = random_word(rng, 2, 10)
            assert (u * u.inverse()).is_identity()
            assert u * F2.identity == u

    def test_length_parity(self):
        rng = rng_from_seed(14)
        for _ in range(500):
            u = random_word(rng, 2, int(rng.integers(0, 11)))
            v = random_word(rng, 2, int(rng.integers(0, 11)))
            p = u * v
            assert len(p) <= len(u) + len(v)
            assert (len(p) - len(u) - len(v)) % 2 == 0

    def test_rank_mismatch(self):
        with pytest.raises(ContextMismatchError):
            F2.word("a") * F3.word("a")


class TestConjugate:
    def test_by_identity(self):
        g = F2.word("ab")
        assert conjugate(g, F2.identity) == g

    def test_no_cancellation(self):
        assert conjugate(F2.word("a"), F2.word("b")) == F2.word("Bab")

    def test_length_of_cyclically_reduced_conjugate(self):
        rng = rng_from_seed(15)
        for _ in range(300):
            g = random_word(rng, 2, 6)
            if _cyclic_split(g.letters) or g.is_identity():
                continue  # not cyclically reduced
            h = random_word(rng, 2, 4)
            res = conjugate(g, h)
            assert res == h.inverse() * g * h
            # h^-1 g h cyclically reduces to a cyclic permutation of g
            assert len(res) - 2 * _cyclic_split(res.letters) == len(g) <= len(res)
            assert len(res) <= len(g) + 2 * len(h)


class TestBall:
    @pytest.mark.parametrize("radius,count", [(0, 1), (1, 5), (2, 17), (3, 53)])
    def test_counts_f2(self, radius, count):
        words = list(ball(F2, radius))
        assert len(words) == count
        assert len(set(words)) == count

    def test_closed_form_count_f3(self):
        words = list(ball(F3, 3))
        expected = 1 + sum(6 * 5 ** (n - 1) for n in range(1, 4))
        assert len(words) == expected

    def test_length_lex_order(self):
        words = list(ball(F2, 2))
        keys = [w.sort_key() for w in words]
        assert keys == sorted(keys)

    def test_all_reduced(self):
        for w in ball(F2, 4):
            assert reduce_letters(w.letters) == w.letters

    # words times (radius + 1) against MAX_BALL_LETTERS = 10^7: rank 1 radius
    # 2235 is 4,471 words (9,997,156), radius 2236 passes; rank 2 radius 11 is
    # 354,293 words, radius 12 passes; rank 3 radius 10**9 must not be computed
    @pytest.mark.parametrize("rank,radius,fits", [(1, 2235, True), (1, 2236, False),
                                                  (2, 11, True), (2, 12, False),
                                                  (3, 10**9, False)])
    def test_cap_before_the_first_word(self, rank, radius, fits):
        words = ball_letters(rank, radius)
        if fits:
            assert next(words) == b""
        else:
            with pytest.raises(ResourceLimitError):
                next(words)


class TestAxisPrefix:
    def test_single_letter(self):
        assert axis_prefix(F2.word("a"), 3) == F2.word("aaa")

    def test_conjugated_root(self):
        assert axis_prefix(F2.word("baB"), 2) == F2.word("ba")

    def test_cyclically_reduced(self):
        assert axis_prefix(F2.word("ab"), 4) == F2.word("abab")

    def test_against_power_oracle(self):
        rng = rng_from_seed(16)
        for _ in range(200):
            g = random_word(rng, 2, int(rng.integers(1, 7)))
            if g.is_identity():
                continue
            depth = int(rng.integers(1, 9))
            big = g ** (depth + 2)
            if len(big) < depth:
                continue
            assert axis_prefix(g, depth).letters == big.letters[:depth]

    def test_identity_rejected(self):
        with pytest.raises(UndefinedAxisError):
            axis_prefix(F2.identity, 3)


class TestSerialization:
    def test_roundtrip(self):
        for s in ["1", "a", "A", "abAB", "bbA"]:
            assert str(word_from_str(s, 2)) == s

    def test_bad_character(self):
        with pytest.raises(MalformedInputError):
            word_from_str("a-b", 2)

    def test_out_of_rank(self):
        with pytest.raises(MalformedInputError):
            word_from_str("c", 2)


class TestFiniteQuotient:
    Q = FiniteQuotient(2, [(1, 0, 2), (1, 2, 0)])

    def test_inverse_images_are_inverse_permutations(self):
        assert self.Q.evaluate(F2.word("aAbB")) == (0, 1, 2)
        b, B = self.Q.evaluate(F2.word("b")), self.Q.evaluate(F2.word("B"))
        assert tuple(b[B[j]] for j in range(3)) == (0, 1, 2)

    def test_images_compose_as_matrices(self):
        # U e_j = e_p[j], so U_a U_b sends j to a[b[j]]
        a, b = self.Q.perms
        assert self.Q.evaluate(F2.word("ab")) == tuple(a[b[j]] for j in range(3))

    def test_rank_zero_is_malformed(self):
        with pytest.raises(MalformedInputError, match="rank must be in 1.."):
            FiniteQuotient(0, [])

    def test_regular_rank_zero_is_malformed(self):
        with pytest.raises(MalformedInputError, match="rank must be in 1.."):
            FiniteQuotient.regular_from_permutations(0, [])

    def test_regular_representation_dimension(self):
        q = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
        assert q.dim == 6
        assert all(sorted(p) == list(range(6)) for p in q.perms)

    def test_homomorphism_on_random_words(self):
        q = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
        rng = rng_from_seed(17)
        for _ in range(50):
            u = random_word(rng, 2, 5)
            v = random_word(rng, 2, 5)
            pu, pv = q.evaluate(u), q.evaluate(v)
            assert q.evaluate(u * v) == tuple(pu[pv[j]] for j in range(6))

    @pytest.mark.parametrize("perms, bad", [
        ([[-1, 0], [0, 1]], 1), ([[0, 1], [2, 0]], 2), ([[0.5, 0], [0, 1]], 1),
        ([[], []], 1), ([[True, False], [0, 1]], 1), ([[0, 1], [0, 1, 2]], 2),
        ([[0, 1], "10"], 2), ([[0, 1], [0, 0]], 2),
    ])
    def test_image_that_is_not_a_permutation_names_its_generator(self, perms, bad):
        for make in (FiniteQuotient, FiniteQuotient.regular_from_permutations):
            with pytest.raises(MalformedInputError, match=f"generator {bad} image"):
                make(2, perms)

    def test_regular_enumeration_stops_at_the_cap(self, monkeypatch):
        # S3 has 6 elements, so 36 index pairs; S4 stops at its sixth element
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 36)
        assert FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)]).dim == 6
        monkeypatch.setattr(freegroup, "SUPPORT_CAP", 35)
        for perms in ([(1, 0, 2), (1, 2, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)]):
            with pytest.raises(ResourceLimitError):
                FiniteQuotient.regular_from_permutations(2, perms)


class TestFreeBasis:
    def test_powers_conjugates_are_a_free_basis(self):
        a, b = F2.word("a"), F2.word("b")
        fam = [conjugate(a, b**k) for k in range(1, 9)]
        assert free_basis_decomposition(fam) == 8 == reference_fold(fam)

    def test_rank_with_the_ambient_generators(self):
        # with a and b in the family the folded graph is the rose: one vertex,
        # so the rank is 2 whatever other words the family holds
        rng = rng_from_seed(18)
        for _ in range(30):
            words = [random_word(rng, 2, int(rng.integers(1, 8))) for _ in range(5)]
            words = [F2.word("a"), F2.word("b")] + [w for w in words if not w.is_identity()]
            assert free_basis_decomposition(words) == 2 == reference_fold(words)

    def test_ambient_generators(self):
        assert free_basis_decomposition([F2.word(s) for s in ("a", "b")]) == 2


class TestWordKernel:
    def test_ball_hashes_distinct(self):
        words = list(ball(F2, 8))
        assert len({hash(w) for w in words}) == len(words) == F2.ball_size(8)

    def test_sort_key_matches_string_oracle(self):
        rng = rng_from_seed(19)
        words = list(ball(F2, 5))
        shuffled = [words[int(i)] for i in rng.permutation(len(words))]

        def oracle_key(s):
            letters = "" if s == "1" else s
            return (len(letters), ["aAbB".index(ch) for ch in letters])

        expected = sorted((str(w) for w in shuffled), key=oracle_key)
        assert [str(w) for w in sorted(shuffled, key=Word.sort_key)] == expected

    def test_letter_product_against_word_loop(self, monkeypatch):
        # the sum over u, then v, in Word.sort_key order, on Word objects:
        # same keys, same coefficient bits, same insertion order, same cap
        def word_loop(x, y, cap):
            out = {}
            for u, cu in sorted(x.items(), key=lambda p: p[0].sort_key()):
                for v, cv in sorted(y.items(), key=lambda p: p[0].sort_key()):
                    w = u * v
                    out[w] = out.get(w, 0) + cu * cv
                    if len(out) > cap:
                        raise ResourceLimitError("cap", cap)
            return out

        rng = rng_from_seed(47)
        for rank in (1, 2, 3):
            words = list(ball(FreeGroupContext(rank), 3))
            for _ in range(15):
                x, y = ({words[int(i)]: complex(*rng.standard_normal(2))
                         for i in rng.integers(0, len(words), size=int(rng.integers(1, 20)))}
                        for _ in range(2))
                letters_x = {u.letters: c for u, c in x.items()}
                letters_y = {v.letters: c for v, c in y.items()}
                assert length_lex(letters_x) == [
                    (u.letters, c) for u, c in sorted(x.items(), key=lambda p: p[0].sort_key())]
                expected = list(word_loop(x, y, 10**6).items())
                monkeypatch.setattr(freegroup, "SUPPORT_CAP", 10**6)
                assert list(letter_product(letters_x, letters_y).items()) == [
                    (w.letters, c) for w, c in expected]
                monkeypatch.setattr(freegroup, "SUPPORT_CAP", len(expected) - 1)
                with pytest.raises(ResourceLimitError):
                    letter_product(letters_x, letters_y)

    def test_generator_codes_roundtrip(self):
        for i in range(1, 4):
            for s in (1, -1):
                assert F3.generator(i, s).letters == bytes((2 * (i - 1) + (s < 0),))


# Oracles on lists of ints that share no code with freegroup: a word is the
# list of its codes, and inverse_pair and reduce_oracle above do the algebra.


def inverse_oracle(letters):
    return [c + 1 if c % 2 == 0 else c - 1 for c in reversed(letters)]


def length_lex_oracle(words):
    return sorted(words, key=lambda w: (len(w), list(w)))


@st.composite
def reduced_words(draw, rank=None, max_size=12):
    """(rank, letters as a list) of a reduced word."""
    rank = draw(st.integers(1, 128)) if rank is None else rank
    return rank, reduce_oracle(draw(st.lists(st.integers(0, 2 * rank - 1), max_size=max_size)))


class TestByteKernelsAgainstListOracles:
    @given(st.integers(1, 128).flatmap(
        lambda k: st.lists(st.integers(0, 2 * k - 1), max_size=30).map(lambda lt: (k, lt))))
    def test_reduce(self, case):
        rank, raw = case
        assert list(reduce_letters(raw)) == reduce_oracle(raw)
        assert list(Word(raw, rank).letters) == reduce_oracle(raw)

    @given(st.integers(1, 128).flatmap(lambda k: st.tuples(reduced_words(k), reduced_words(k))))
    def test_product(self, pair):
        (_, a), (_, b) = pair
        got = _product_letters(bytes(a), bytes(b))
        assert type(got) is bytes and list(got) == reduce_oracle(a + b)

    @given(reduced_words())
    def test_inverse(self, word):
        _, a = word
        got = inverse_letters(bytes(a))
        assert type(got) is bytes and list(got) == inverse_oracle(a)
        assert reduce_oracle(a + list(got)) == []

    @given(st.lists(reduced_words(rank=3, max_size=5).map(lambda p: bytes(p[1])), unique=True))
    def test_length_lex(self, words):
        table = {w: i for i, w in enumerate(words)}
        assert [w for w, _ in length_lex(table)] == length_lex_oracle(words)
        assert all(table[w] == i for w, i in length_lex(table))

    @pytest.mark.parametrize("rank,radius", [(1, 5), (2, 4), (3, 3)])
    def test_ball(self, rank, radius):
        everything = [list(t) for n in range(radius + 1)
                      for t in product(range(2 * rank), repeat=n)]
        expected = length_lex_oracle([w for w in everything if reduce_oracle(w) == w])
        got = list(ball_letters(rank, radius))
        assert all(type(w) is bytes for w in got)
        assert [list(w) for w in got] == expected


class TestRankBound:
    """A letter code is one byte, so ranks stop at 128."""

    def test_rank_128_takes_its_top_letter(self):
        f128 = FreeGroupContext(128)
        top = f128.generator(128, -1)
        assert top.letters == b"\xff"
        assert top.inverse() == f128.generator(128) == Word([254], 128)
        assert (Word([255, 3], 128) * Word([2, 254], 128)).is_identity()
        assert (top * top).letters == b"\xff\xff"
        assert list(ball_letters(128, 1))[-1] == b"\xff"

    def test_rank_129_is_refused(self):
        with pytest.raises(MalformedInputError):
            FreeGroupContext(129)
        with pytest.raises(MalformedInputError):
            Word([0], 129)
        with pytest.raises(MalformedInputError):
            word_from_str("1", 129)
        with pytest.raises(MalformedInputError):
            FreeGroupContext(0)

    def test_codes_beyond_a_byte_are_refused(self):
        for raw in ([256], [0, 300], [-1]):
            with pytest.raises(MalformedInputError):
                reduce_letters(raw)
            with pytest.raises(MalformedInputError):
                Word(raw, 128)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sphere_size_counts_each_layer_of_the_ball(rank):
    layers = [0] * 7
    for w in ball_letters(rank, 6):
        layers[len(w)] += 1
    assert [_sphere_size(rank, n) for n in range(7)] == layers


class TestFoldAgainstReference:
    def families(self):
        yield []  # rank 0, no basis
        rng = rng_from_seed(20)
        for _ in range(150):
            words = [random_word(rng, 2, int(rng.integers(1, 9))) for _ in range(6)]
            yield [w for w in words if not w.is_identity()]
        for _ in range(40):
            w = random_word(rng, 2, int(rng.integers(1, 5)))
            s = random_word(rng, 2, int(rng.integers(1, 5)))
            n = int(rng.integers(2, 10))
            yield [w ** (-k) * s * w**k for k in range(1, n + 1)]

    def test_matches_reference(self):
        for words in self.families():
            rank = free_basis_decomposition(words)
            # the fold's rank and the reference's agree, on the families with
            # relations too, and the folded graph, so the rank, ignores the
            # word order
            assert rank == reference_fold(words) == free_basis_decomposition(words[::-1])


def _builders(error: str) -> set[str]:
    """Every function of the package that constructs `error`, as module.name."""
    builders = set()

    def visit(node, function):
        if isinstance(node, ast.Call) and error in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None)):
            builders.add(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = f"{function}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for path in sorted(Path(freegroup.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return builders


def test_resource_limit_errors_are_raised_by_the_two_cap_checks():
    # every refusal past SUPPORT_CAP goes through _check_support, and every
    # ball past MAX_BALL_LETTERS through _check_ball
    assert _builders("ResourceLimitError") == {"freegroup._check_support",
                                               "freegroup._check_ball"}


def test_context_mismatch_errors_are_raised_by_the_one_rank_rule():
    # every check that two operands live in one F_k goes through _same_rank
    assert _builders("ContextMismatchError") == {"freegroup._same_rank"}


# every float literal in the package with 0 < |v| < 1e-3, by module and
# enclosing definition or module-level name: the tolerances that ROADMAP
# State lists, so a new one is added, and an old one deleted, on purpose
FLOAT_TOLERANCES = [
    ("boundary.TRUNCATED_TOL", 1e-12),
    ("subgroups.PSD_EIGENVALUE_TOL", 1e-9),
    ("walks.MASS_TOLERANCE", 1e-12),
]


def test_small_float_literals_are_the_listed_tolerances():
    found = []

    def visit(node, where):
        if (isinstance(node, ast.Constant) and type(node.value) is float
                and 0 < abs(node.value) < 1e-3):
            found.append((where, node.value))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and "." not in where:
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            where = f"{where}.{target.id}"
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(freegroup.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(found) == sorted(FLOAT_TOLERANCES)

from collections import deque

import pytest

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
    axis_prefix,
    ball,
    ball_letters,
    conjugate,
    cyclic_reduction,
    free_basis_decomposition,
    inverse_letters,
    length_lex,
    letter_product,
    reduce_letters,
    word_from_str,
)
from stationarylab.walks import rng_from_seed

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
            return tuple(cur)
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
            assert Word(raw, 2).letters == reduce_oracle(raw)

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
            _, c = cyclic_reduction(g)
            if len(c) != len(g) or g.is_identity():
                continue  # not cyclically reduced
            h = random_word(rng, 2, 4)
            res = conjugate(g, h)
            assert res == h.inverse() * g * h
            if not h.is_identity():
                hl, gl = h.letters, g.letters
                no_cancel = hl[0] != gl[0] and gl[-1] != -h.letters[0]
                if no_cancel and -hl[0] != gl[-1] and hl[0] != gl[0]:
                    pass  # junction analysis is tested via the product identity above
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
            assert next(words) == ()
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
    def test_inverse_images_are_adjoints(self):
        import numpy as np

        q = FiniteQuotient.from_permutations(2, [(1, 0, 2), (1, 2, 0)])
        w = F2.word("aAbB")
        assert np.allclose(q.evaluate(w), np.eye(3))
        u = q.evaluate(F2.word("b"))
        ui = q.evaluate(F2.word("B"))
        assert np.allclose(u @ ui, np.eye(3))

    def test_regular_representation_dimension(self):
        q = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
        assert q.dim == 6

    def test_homomorphism_on_random_words(self):
        import numpy as np

        q = FiniteQuotient.regular_from_permutations(2, [(1, 0, 2), (1, 2, 0)])
        rng = rng_from_seed(17)
        for _ in range(50):
            u = random_word(rng, 2, 5)
            v = random_word(rng, 2, 5)
            assert np.allclose(q.evaluate(u * v), q.evaluate(u) @ q.evaluate(v))


class TestFreeBasis:
    def test_powers_conjugates_are_a_free_basis(self):
        a, b = F2.word("a"), F2.word("b")
        fam = [conjugate(a, b**k) for k in range(1, 9)]
        dec = free_basis_decomposition(fam)
        assert len(dec.basis) == 8
        assert all(len(r) == 1 for r in dec.rewritten)

    def test_rewrite_reconstructs_words(self):
        rng = rng_from_seed(18)
        for _ in range(30):
            words = [random_word(rng, 2, int(rng.integers(1, 8))) for _ in range(5)]
            words = [w for w in words if not w.is_identity()]
            if not words:
                continue
            dec = free_basis_decomposition(words)
            for w, rw in zip(words, dec.rewritten):
                out = F2.identity
                for s in rw:
                    bw = dec.basis[abs(s) - 1]
                    out = out * (bw if s > 0 else bw.inverse())
                assert out == w

    def test_ambient_generators(self):
        dec = free_basis_decomposition([F2.word(s) for s in ("a", "b")])
        assert sorted(str(w) for w in dec.basis) == ["a", "b"]


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

    def test_letter_product_against_word_loop(self):
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
                assert list(letter_product(letters_x, letters_y, 10**6, "cap").items()) == [
                    (w.letters, c) for w, c in expected]
                with pytest.raises(ResourceLimitError):
                    letter_product(letters_x, letters_y, len(expected) - 1, "cap")

    def test_generator_codes_roundtrip(self):
        for i in range(1, 4):
            for s in (1, -1):
                assert F3.generator(i, s).letters == (2 * (i - 1) + (s < 0),)


def reference_fold(words):
    """Stallings fold of the whole wedge of loops at once, read off with a
    spanning tree by BFS in letter order from the base.

    Returns the basis size and the length of each word rewritten over the
    non-tree edges.
    """
    parent, adj = [], []

    def new_vertex():
        parent.append(len(parent))
        adj.append({})
        return len(parent) - 1

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def inv(c):
        return inverse_letters((c,))[0]

    base = new_vertex()
    pending = deque()
    for w in words:
        prev = base
        for j, c in enumerate(w.letters):
            nxt = base if j == len(w) - 1 else new_vertex()
            pending.append((prev, c, nxt))
            prev = nxt
    while pending:
        u, c, v = pending.popleft()
        u, v = find(u), find(v)
        cur = adj[u].get(c)
        if cur is None:
            adj[u][c] = v
            pending.append((v, inv(c), u))
        elif find(cur) != v:
            x, y = find(cur), v
            parent[y] = x
            for lab, t in adj[y].items():
                pending.append((x, lab, t))
            adj[y] = {}

    root = find(base)
    tree = {root: None}
    queue = deque([root])
    n_edges = 0
    while queue:
        u = queue.popleft()
        n_edges += len(adj[u])
        for c in sorted(adj[u]):
            v = find(adj[u][c])
            if v not in tree:
                tree[v] = (u, c)
                queue.append(v)
    basis_size = n_edges // 2 - len(tree) + 1

    lengths = []
    for w in words:
        v, out = root, []
        for c in w.letters:
            t = find(adj[v][c])
            if tree[t] != (v, c) and tree[v] != (t, inv(c)):
                # a non-tree edge, named by its orientation-free endpoints
                edge = min((v, c, t), (t, inv(c), v))
                step = (edge, edge == (v, c, t))
                if out and out[-1] == (edge, not step[1]):
                    out.pop()
                else:
                    out.append(step)
            v = t
        lengths.append(len(out))
    return basis_size, lengths


class TestFoldAgainstReference:
    def families(self):
        rng = rng_from_seed(20)
        for _ in range(150):
            words = [random_word(rng, 2, int(rng.integers(1, 9))) for _ in range(6)]
            yield [w for w in words if not w.is_identity()]
        for _ in range(40):
            w = random_word(rng, 2, int(rng.integers(1, 5)))
            s = random_word(rng, 2, int(rng.integers(1, 5)))
            n = int(rng.integers(2, 10))
            yield [w ** (-k) * s * w**k for k in range(1, n + 1)]

    def test_matches_reference_and_rebuilds_words(self):
        for words in self.families():
            if not words:
                continue
            dec = free_basis_decomposition(words)
            basis_size, lengths = reference_fold(words)
            assert len(dec.basis) == basis_size
            assert [len(rw) for rw in dec.rewritten] == lengths
            # the folded graph, and so the readout, ignores the word order
            again = free_basis_decomposition(words[::-1])
            assert again.basis == dec.basis
            assert again.rewritten == dec.rewritten[::-1]
            for w, rw in zip(words, dec.rewritten):
                out = F2.identity
                for s in rw:
                    bw = dec.basis[abs(s) - 1]
                    out = out * (bw if s > 0 else bw.inverse())
                assert out == w

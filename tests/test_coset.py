import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acforge import coset
from acforge.coset import (
    CapExceeded,
    CosetTable,
    Finite,
    _Enumerator,
    column,
    coset_table,
    enumerate_cosets,
    multiply,
    validate_table,
)
from acforge.presentation import Presentation, parse_presentation
from acforge.words import free_reduce


COXETER_S4 = "< s1, s2, s3 | s1^2, s2^2, s3^2, s1 s2 s1 s2 s1 s2, s2 s3 s2 s3 s2 s3, s1 s3 s1 s3 >"


def pres(text):
    return parse_presentation(text)


def exactly(result, expected):
    """Equal and of one class: as tuples, CapExceeded(n) == Finite(n)."""
    return type(result) is type(expected) and result == expected


def perm_closure(perms):
    """Multiplication-table closure of a set of permutations (brute force)."""
    if not perms:
        return {()}
    n = len(perms[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for q in perms:
                r = tuple(q[i] for i in p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def reference_enumerate(p, max_cosets):
    """The former enumerator: HLT on one Python list per coset and a column
    for every letter, g^2 relators scanned like any other.  Returns the
    result and the number of cosets defined."""
    ncols = 2 * len(p.generators)
    relators = [[column(x) for x in r] for r in p.relators]
    table = [[None] * ncols]
    parent = [0]
    live = 1

    def rep(k):
        lam = k
        while parent[lam] != lam:
            lam = parent[lam]
        while parent[k] != lam:
            parent[k], k = lam, parent[k]
        return lam

    def define(alpha, col):
        nonlocal live
        if live >= max_cosets:
            return False
        beta = len(table)
        table.append([None] * ncols)
        parent.append(beta)
        live += 1
        table[alpha][col] = beta
        table[beta][col ^ 1] = alpha
        return True

    def merge(k, lam, queue):
        nonlocal live
        phi, psi = rep(k), rep(lam)
        if phi != psi:
            parent[max(phi, psi)] = min(phi, psi)
            live -= 1
            queue.append(max(phi, psi))

    def coincidence(alpha, beta):
        queue = deque()
        merge(alpha, beta, queue)
        while queue:
            gamma = queue.popleft()
            for col in range(ncols):
                delta = table[gamma][col]
                if delta is None:
                    continue
                table[delta][col ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][col] is not None:
                    merge(nu, table[mu][col], queue)
                elif table[nu][col ^ 1] is not None:
                    merge(mu, table[nu][col ^ 1], queue)
                else:
                    table[mu][col] = nu
                    table[nu][col ^ 1] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return True
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return True
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return True
            if not define(f, word[i]):
                return False

    alpha = 0
    while alpha < len(table):
        if rep(alpha) == alpha:
            for word in relators:
                if not scan_and_fill(alpha, word):
                    return CapExceeded(live), len(table)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for col in range(ncols):
                    if table[alpha][col] is None and not define(alpha, col):
                        return CapExceeded(live), len(table)
        alpha += 1
    return Finite(live), len(table)


def has_involutory_relator(p):
    return any(len(r) == 2 and r[0] == r[1] for r in p.relators)


def random_presentation(rng):
    """1-3 generators, 1-3 random relators; about half the time also g^2 or
    g^-2 for one or two generators, at random places."""
    m = rng.randint(1, 3)
    rels = [
        [rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(1, 6))]
        for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.5:
        for g in rng.sample(range(1, m + 1), rng.randint(1, min(2, m))):
            rels.insert(rng.randint(0, len(rels)), [rng.choice([g, -g])] * 2)
    return Presentation(tuple("abc"[:m]), tuple(free_reduce(r) for r in rels))


def test_known_orders():
    assert exactly(enumerate_cosets(pres("< a | a >")), Finite(1))
    assert exactly(enumerate_cosets(pres("< a | a^5 >")), Finite(5))
    assert exactly(enumerate_cosets(pres("< | >")), Finite(1))
    assert exactly(enumerate_cosets(pres("< | 1 >")), Finite(1))
    assert exactly(enumerate_cosets(pres("< a, b | a^2, b^3, a b a b >")), Finite(6))  # S3
    assert exactly(enumerate_cosets(pres("< a, b | a^4, a^2 b^-2, a b a b^-1 >")), Finite(8))  # Q8
    assert exactly(enumerate_cosets(pres("< a, b | a^2, b^2, a b a b a b >")), Finite(6))  # D3


def test_poincare_order_120():
    assert exactly(enumerate_cosets(pres("< a, b | a b^2 a b^-1, a^4 b a^-1 b >"), 10_000), Finite(120))


def test_cap_exceeded_is_a_result():
    assert exactly(enumerate_cosets(pres("< a | >"), 64), CapExceeded(64))
    assert exactly(enumerate_cosets(pres("< a, b | a b a^-1 b^-1 >"), 100), CapExceeded(100))


def test_cap_validation():
    with pytest.raises(ValueError):
        enumerate_cosets(pres("< a | a >"), 0)


def test_determinism():
    p = pres("< a, b | a b^2 a b^-1, a^4 b a^-1 b >")
    t1 = coset_table(p, 10_000)
    t2 = coset_table(p, 10_000)
    assert t1 == t2


def test_table_soundness():
    for text in ("< a | a^5 >", "< a, b | a^2, b^3, a b a b >", "< a, b | a b^2 a b^-1, a^4 b a^-1 b >"):
        p = pres(text)
        t = coset_table(p, 10_000)
        assert t is not None
        assert validate_table(p, t) == []


def test_regular_action_matches_brute_force_closure():
    # For the trivial subgroup the coset action is regular, so the order must
    # equal the size of the permutation group the columns generate.
    rng = random.Random(89)
    checked = 0
    while checked < 60:
        m = rng.randint(1, 2)
        n_rels = rng.randint(1, 2)
        rels = tuple(
            free_reduce([rng.choice([1, -1]) * rng.randint(1, m) for _ in range(rng.randint(1, 6))])
            for _ in range(n_rels)
        )
        if sum(len(r) for r in rels) > 6:
            continue
        p = Presentation(tuple("ab"[:m]), rels)
        result = enumerate_cosets(p, 64)
        if not isinstance(result, Finite):
            continue
        t = coset_table(p, 64)
        assert validate_table(p, t) == []
        gens = list(zip(*t.rows))[::2]  # the columns of generators 1..m
        assert len(perm_closure(gens)) == result.order
        checked += 1


def test_lemma2_outputs_enumerate_to_one():
    from acforge.lemma2 import presentation_from_matrix
    from test_lemma2 import random_unimodular

    rng = random.Random(97)
    for _ in range(30):
        n = rng.randint(1, 3)
        p, _ = presentation_from_matrix(random_unimodular(rng, n, n_ops=10))
        assert exactly(enumerate_cosets(p, 100_000), Finite(1))


def test_trivial23_enumeration_is_one_or_capped():
    p = pres("< a, b | a^-1 b^-2 a b^3, b^-1 a^-2 b a^3 >")
    result = enumerate_cosets(p, 10_000)
    assert exactly(result, Finite(1)) or isinstance(result, CapExceeded)


def test_involution_column_keeps_other_length_two_relators():
    # a^-2 shares a's column; a^-1 b^-1 still has to be scanned
    p = pres("< a, b | a^-2, a^-1 b^-1 >")
    assert exactly(enumerate_cosets(p, 100), Finite(2))
    assert exactly(reference_enumerate(p, 100)[0], Finite(2))
    assert validate_table(p, coset_table(p, 100)) == []


def test_differential_against_reference_enumerator():
    rng = random.Random(2024)
    closed = same_work = 0
    for n in range(1200):
        if n % 8:
            p = random_presentation(rng)
        else:
            p = von_dyck(rng.randint(2, 6), rng.randint(2, 6), rng)
        e = _Enumerator(p, 300)
        result = e.run()
        expected, ref_defined = reference_enumerate(p, 300)
        if not has_involutory_relator(p):
            assert exactly(result, expected) and len(e.table) // e.width - 1 == ref_defined, p
            same_work += 1
        if isinstance(result, Finite):
            assert validate_table(p, e.compressed()) == [], p
            if isinstance(expected, Finite):
                assert result == expected, p
                closed += 1
    assert closed >= 300 and same_work >= 300


def test_involution_columns_define_fewer_cosets():
    p = pres(COXETER_S4)
    e = _Enumerator(p, 10_000)
    assert exactly(e.run(), Finite(24))
    assert len(e.table) // e.width - 1 < reference_enumerate(p, 10_000)[1]


def von_dyck(k, l, rng):
    """< a, b | a^2, b^k, (a b)^l >, each relator rotated and perhaps inverted."""
    rels = []
    for r in ([1, 1], [2] * k, [1, 2] * l):
        s = rng.randrange(len(r))
        r = r[s:] + r[:s]
        rels.append([-x for x in reversed(r)] if rng.random() < 0.5 else r)
    rng.shuffle(rels)
    return Presentation(("a", "b"), tuple(tuple(r) for r in rels))


def sympy_order(p):
    """Order by sympy's own HLT enumeration.  ``FpGroup.order()`` first looks
    for a finite-index subgroup, which ran past 5 s on some small random
    presentations of order 6."""
    fp = pytest.importorskip("sympy.combinatorics.fp_groups")
    from sympy.combinatorics.free_groups import free_group

    F, *gens = free_group(",".join(p.generators))
    rels = []
    for r in p.relators:
        w = F.identity
        for x in r:
            w *= gens[abs(x) - 1] ** (1 if x > 0 else -1)
        rels.append(w)
    table = fp.coset_enumeration_r(fp.FpGroup(F, rels), [], max_cosets=10_000)
    table.compress()
    return len(table.table)


def test_sympy_oracle():
    pytest.importorskip("sympy")
    rng = random.Random(31)
    cases = [von_dyck(k, l, rng) for k, l in ((2, 5), (3, 3), (3, 4), (4, 3), (3, 5))]
    while len(cases) < 10:
        p = random_presentation(rng)
        result = enumerate_cosets(p, 200)
        if isinstance(result, Finite) and result.order > 1:
            cases.append(p)
    for p in cases:
        assert exactly(enumerate_cosets(p, 10_000), Finite(sympy_order(p))), p
    assert sum(map(has_involutory_relator, cases)) >= 6


def test_slot_budget_caps_wide_tables(monkeypatch):
    monkeypatch.setattr(coset, "MAX_TABLE_SLOTS", 1000)
    e = _Enumerator(pres("< a, b | >"), 10**6)
    result = e.run()
    # the sink row is not counted against the budget
    assert isinstance(result, CapExceeded) and len(e.table) - e.width <= 1000
    assert result.cosets == len(e.table) // e.width - 1 == 200


def coxeter_symmetric(n):
    """Coxeter presentation of S_n: s_i^2, (s_i s_i+1)^3, (s_i s_j)^2."""
    rels = [(i, i) for i in range(1, n)]
    rels += [(i, i + 1) * 3 for i in range(1, n - 1)]
    rels += [(i, j) * 2 for i in range(1, n) for j in range(i + 2, n)]
    return Presentation(tuple(f"s{i}" for i in range(1, n)), tuple(rels))


RAPAPORT = "< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >"


class LoopReference(_Enumerator):
    """The HLT loop as it was before the closed-scan pass and the chained
    definitions: every scan goes through ``scan_and_fill``, one step at a
    time, and every definition through ``define``, which checks both caps
    on the live count instead of one budget offset.  It stops at an
    undefined entry (0) and so never reads the sink row.  ``stopped``
    records where a cap stopped it: "scan" or "fill"; ``mid_chain`` whether
    that scan had just made a definition the enumerator chains on from.
    ``guarded`` counts the scan's definitions after which the enumerator may
    not chain, by the guard that holds: "word" (the relator's column word
    steps straight back) or "end" (the definition sets the entry the
    backward end stopped at)."""

    stopped = None
    mid_chain = False

    def __init__(self, p, max_cosets):
        super().__init__(p, max_cosets)
        self.guarded = Counter()
        self.slot_limit = coset.MAX_TABLE_SLOTS  # the sink row is not counted

    def define(self, alpha, col):
        table = self.table
        beta = len(table)
        if self.live >= self.max_cosets or beta > self.slot_limit:
            return False
        table.extend(self.blank)
        table[alpha + col] = beta
        table[beta + self.inv[col]] = alpha
        return True

    def scan_and_fill(self, alpha, fwd, back, chain):
        table = self.table
        f, i = alpha, 0
        b, j = alpha, len(fwd) - 1
        chained = False
        while True:
            while i <= j:
                x = table[f + fwd[i]]
                if not x:
                    break
                f = x
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return True
            while j >= i:
                x = table[b + back[j]]
                if not x:
                    break
                b = x
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return True
            if j == i:
                table[f + fwd[i]] = b
                table[b + back[i]] = f
                return True
            if not self.define(f, fwd[i]):
                self.mid_chain = chained
                return False
            chained = chain and (b != f or back[j] != fwd[i])
            if not chain:
                self.guarded["word"] += 1
            elif not chained:
                self.guarded["end"] += 1

    def run(self):
        table, pc, width = self.table, self.ncols, self.width
        alpha = width  # coset 0, after the sink row
        while alpha < len(table):
            if not table[alpha + pc]:
                for fwd, back, chain in self.relators:
                    if not self.scan_and_fill(alpha, fwd, back, chain):
                        self.stopped = "scan"
                        return CapExceeded(self.live)
                    if table[alpha + pc]:
                        break
                else:
                    for col in range(self.ncols):
                        if not table[alpha + col] and not self.define(alpha, col):
                            self.stopped = "fill"
                            return CapExceeded(self.live)
            alpha += width
        return Finite(self.live)


def assert_same_work(p, max_cosets):
    """Run the enumerator and the reference on p; assert the same result,
    flat table and live count.  Returns the reference, which holds where it
    stopped and the guard counts."""
    e, ref = _Enumerator(p, max_cosets), LoopReference(p, max_cosets)
    result = e.run()
    assert (result, e.table, e.live) == (ref.run(), ref.table, ref.live), p
    return ref


def test_run_does_the_work_of_the_reference_loop():
    rng = random.Random(19)
    stops = []
    involutory = 0
    for n in range(600):
        p = random_presentation(rng) if n % 6 else von_dyck(rng.randint(2, 6), rng.randint(2, 6), rng)
        involutory += has_involutory_relator(p)
        stops.append(assert_same_work(p, rng.choice([5, 40, 300])).stopped)
    for n in (4, 5, 6):
        assert assert_same_work(coxeter_symmetric(n), 10**6).stopped is None
    stops.append(assert_same_work(pres(RAPAPORT), 2000).stopped)
    stops.append(assert_same_work(pres("< a, b | a >"), 1).stopped)
    assert stops[-2:] == ["scan", "fill"]
    assert involutory >= 200 and stops.count("scan") >= 50 and stops.count("fill") >= 20
    assert stops.count(None) >= 200


def test_run_meets_the_slot_budget_where_the_reference_does(monkeypatch):
    # a relator scan that runs out of slots, and a final fill that does; each
    # budget is whole rows (Rapaport's are 7 slots, the other's 5), so the
    # last row that fits exactly is defined
    monkeypatch.setattr(coset, "MAX_TABLE_SLOTS", 7 * 143)
    assert assert_same_work(pres(RAPAPORT), 10**6).stopped == "scan"
    monkeypatch.setattr(coset, "MAX_TABLE_SLOTS", 5 * 200)
    assert assert_same_work(pres("< a, b | a^3 >"), 10**6).stopped == "fill"


def test_caps_after_merges_and_inside_chains_match_the_reference_loop(monkeypatch):
    # tiny caps and slot budgets, so that many runs stop after merges have
    # raised the budget offset and many stop partway down a chain
    rng = random.Random(53)
    stops = Counter()
    for n in range(2000):
        p = random_presentation(rng) if n % 5 else von_dyck(rng.randint(2, 6), rng.randint(2, 6), rng)
        monkeypatch.setattr(coset, "MAX_TABLE_SLOTS", rng.randint(1, 1000))
        ref = assert_same_work(p, rng.randint(1, 50))
        if ref.stopped:
            stops["capped"] += 1
            stops["after merges"] += ref.dead > 0
            stops["mid chain"] += ref.mid_chain
            stops["both"] += ref.mid_chain and ref.dead > 0
            stops["slots"] += len(ref.table) > ref.slot_limit
    assert stops["capped"] >= 700 and stops["slots"] >= 100
    assert stops["after merges"] >= 150 and stops["mid chain"] >= 200 and stops["both"] >= 20


def test_a_relator_that_steps_straight_back_never_chains():
    # b a a b^-1 a: a's column is shared (a^2), so a a steps straight back;
    # a chain from the first a would read a defined entry at the second
    p = pres("< a, b | a^2, b a^2 b^-1 a >")
    assert [chain for _, _, chain in _Enumerator(p, 300).relators] == [False]
    assert assert_same_work(p, 300).guarded == {"word": 298}
    # chaining through a a anyway deduces a wrong entry: order 3, not 1
    q = pres("< a, b | a^2, b^3, b a a b a >")
    assert assert_same_work(q, 300).guarded["word"] > 0
    assert exactly(enumerate_cosets(q), Finite(1))


def test_a_definition_at_the_backward_end_is_scanned_again():
    # a b a^-1 on a blank coset: the forward end stops at its a entry, and
    # so does the backward end, reading a^-1 from the right; defining that
    # entry moves both ends
    p = pres("< a, b | a b a^-1 >")
    assert assert_same_work(p, 300).guarded == {"end": 149}
    # chaining past it anyway runs to the cap instead of closing at order 3
    q = pres("< a, b | a b a b^-2 a^-1, b^3 >")
    assert assert_same_work(q, 50).guarded["end"] > 0
    assert exactly(enumerate_cosets(q, 50), Finite(3))


def test_the_sink_row_stays_zero():
    # every trace through an undefined entry falls into the sink and stays
    # there only while no slot of the sink row is ever written
    rng = random.Random(43)
    cases = [random_presentation(rng) for _ in range(200)]
    cases += [von_dyck(rng.randint(2, 6), rng.randint(2, 6), rng) for _ in range(40)]
    cases += [pres(RAPAPORT), coxeter_symmetric(5)]
    for p in cases:
        e = _Enumerator(p, 2000)
        e.run()
        assert e.table[: e.width] == [0] * e.width, p


class CountedReads(list):
    """A list that counts the entries read through ``table[k]``."""

    reads = 0

    def __getitem__(self, k):
        self.reads += 1
        return list.__getitem__(self, k)


@pytest.mark.parametrize(
    "p, max_cosets, reads",
    [
        # the loop before the sink row and the chain read 10,605 and 48,148;
        # before 0 marked a live coset, path compression read 48,116 on S6
        (pres(RAPAPORT), 2000, 8113),
        (coxeter_symmetric(6), 10**6, 47700),
    ],
    ids=["rapaport", "coxeter6"],
)
def test_table_reads_are_pinned(p, max_cosets, reads):
    e = _Enumerator(p, max_cosets)
    e.table = CountedReads(e.table)
    e.run()
    assert e.table.reads == reads


def reference_validate(p, t):
    """The former validate_table: every relator traced from every coset, one
    table lookup per letter.  An entry past the table raises IndexError and
    -1 wraps to the last row."""
    problems = []
    n = t.order
    rows = t.rows
    for g in range(1, t.n_generators + 1):
        fwd = tuple(row[column(g)] for row in rows)
        if sorted(fwd) != list(range(n)):
            problems.append(f"generator {g} does not act as a permutation")
            continue
        back = column(-g)
        for c in range(n):
            if rows[fwd[c]][back] != c:
                problems.append(f"g then g^-1 does not return to start (g={g}, coset={c})")
                break
    for k, r in enumerate(p.relators, start=1):
        word = [column(x) for x in r]
        for c in range(n):
            d = c
            for col in word:
                d = rows[d][col]
            if d != c:
                problems.append(f"relator {k} does not fix coset {c}")
                break
    return problems


def changed(t, edits):
    """t with rows[row][col] = value for each (row, col, value)."""
    rows = [list(row) for row in t.rows]
    for row, col, value in edits:
        rows[row][col] = value
    return CosetTable(t.n_generators, tuple(map(tuple, rows)))


S3 = "< a, b | a^2, b^3, a b a b >"


def test_multiply_is_p_then_q_in_every_degree():
    assert multiply((), ()) == ()
    assert multiply((0,), (0,)) == (0,)
    assert multiply((1, 0), (1, 0)) == (0, 1)
    assert multiply((1, 2, 0), (0, 2, 1)) == (2, 1, 0)
    rng = random.Random(3)
    for degree in range(2, 9):
        p, q = list(range(degree)), list(range(degree))
        rng.shuffle(p)
        rng.shuffle(q)
        assert multiply(tuple(p), tuple(q)) == tuple(q[i] for i in p)


def closed_table(seed):
    """The first closed table of 2..300 cosets of the random presentations
    drawn from random.Random(seed)."""
    rng = random.Random(seed)
    while True:
        if rng.random() < 0.8:
            p = random_presentation(rng)
        else:
            p = von_dyck(rng.randint(2, 5), rng.randint(2, 5), rng)
        t = coset_table(p, 300)
        if not isinstance(t, CapExceeded) and t.order > 1:
            return p, t


EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(0, 2**32), EDITS)
def test_validate_table_matches_the_reference_loop(seed, edits):
    # closed tables, then 0-3 entries each set to a coset or to -1 or n
    p, t = closed_table(seed)
    n, width = t.order, 2 * t.n_generators
    t = changed(t, [(i % n, j % width, v % (n + 2) - 1) for i, j, v in edits])
    problems = validate_table(p, t)
    if all(0 <= x < n for row in t.rows for x in row):
        assert problems == reference_validate(p, t), (p, t)
    else:
        assert problems and all(" is outside 0.." in msg for msg in problems), (p, t, problems)


def test_planted_faults_are_caught():
    p = pres(S3)
    t = coset_table(p)
    assert validate_table(p, t) == reference_validate(p, t) == []
    # one entry changed: a's column is no longer a permutation
    bad = changed(t, [(0, column(1), 2)])
    assert validate_table(p, bad) == reference_validate(p, bad)
    assert validate_table(p, bad)[0] == "generator 1 does not act as a permutation"
    # b^-1's column with two entries swapped is a permutation, but not b's inverse
    col = column(-2)
    bad = changed(t, [(0, col, t.rows[1][col]), (1, col, t.rows[0][col])])
    assert validate_table(p, bad) == reference_validate(p, bad)
    assert validate_table(p, bad)[0] == "g then g^-1 does not return to start (g=2, coset=3)"
    # a ragged row: the reference raises, the check names the row
    ragged = CosetTable(2, t.rows[:2] + (t.rows[2][:3],) + t.rows[3:])
    with pytest.raises(IndexError):
        reference_validate(p, ragged)
    assert validate_table(p, ragged) == ["row 2 has 3 entries, not 4"]


def test_entries_out_of_range_are_named_not_raised():
    p = pres(S3)
    t = coset_table(p)
    past = changed(t, [(0, 0, 99)])
    with pytest.raises(IndexError):
        reference_validate(p, past)
    assert validate_table(p, past) == ["row 0 column 0: entry 99 is outside 0..5"]
    # -1 wraps to the last row in Python's indexing; here it is an entry out of range
    wraps = changed(t, [(3, 2, -1), (5, 1, 6)])
    assert validate_table(p, wraps) == [
        "row 5 column 1: entry 6 is outside 0..5",
        "row 3 column 2: entry -1 is outside 0..5",
    ]
    assert validate_table(p, changed(t, [(4, 3, None)])) == ["row 4 column 3: entry None is not an int"]
    assert validate_table(pres("< a | a^2 >"), t) == ["table has 2 generators, presentation has 1"]


@pytest.mark.parametrize(
    "rows, problems",
    [
        (((1, 1), (0.0, 0)), ["row 1 column 0: entry 0.0 is not an int"]),
        # g then g^-1 gathers (0, 1.0), which equals the identity tuple
        (((1, 1.0), (0, 0)), ["row 0 column 1: entry 1.0 is not an int"]),
        # 1.0 is in range(2) by equality, so it is named before the 5 after it
        (((1.0, 1), (5, 0)), ["row 0 column 0: entry 1.0 is not an int"]),
        (((True, 1), (False, 0)), []),  # a bool is an int, as in Python
    ],
    ids=["forward", "inverse", "first-entry", "bool"],
)
def test_entries_that_are_not_ints_are_named(rows, problems):
    assert validate_table(pres("< a | a^2 >"), CosetTable(1, rows)) == problems


@pytest.mark.parametrize("row", [None, 5], ids=["None", "int"])
def test_a_row_that_is_not_a_sequence_is_named(row):
    t = CosetTable(1, ((1, 0), row))
    assert validate_table(pres("< a | a^2 >"), t) == ["row 1 is not a sequence"]


@pytest.mark.parametrize(
    "table, problem",
    [
        (CosetTable(1, None), "table rows are not a sequence"),
        (CosetTable(1, 5), "table rows are not a sequence"),
        (CosetTable(1.0, ((1, 0), (0, 1))), "table has 1.0 generators, presentation has 1"),
    ],
    ids=["None", "int", "float-generators"],
)
def test_a_table_of_the_wrong_form_is_named_not_raised(table, problem):
    assert validate_table(pres("< a | a^2 >"), table) == [problem]


def test_a_passing_table_does_not_certify_the_order():
    # < a | a^6 > has order 6; a 3-cycle satisfies a^6, so this 3-row table passes
    t = CosetTable(1, ((1, 2), (2, 0), (0, 1)))
    assert validate_table(pres("< a | a^6 >"), t) == []
    # no generators: the one row has no entries and there is nothing to gather
    assert validate_table(pres("< | >"), CosetTable(0, ((),))) == []


def test_relators_that_fail_on_valid_columns_match_the_reference_loop():
    # closed tables checked against another presentation on as many
    # generators: every column is a permutation and g^-1's is g's inverse,
    # so each relator is checked in two halves, and many fail
    rng = random.Random(71)
    failing = 0
    for seed in range(200):
        p, t = closed_table(seed)
        q = p
        while q == p or len(q.generators) != t.n_generators:
            if rng.random() < 0.3:
                q = von_dyck(rng.randint(2, 6), rng.randint(2, 6), rng)
            else:
                q = random_presentation(rng)
        problems = validate_table(q, t)
        assert problems == reference_validate(q, t), (q, t)
        assert not any(msg.startswith(("generator", "g then")) for msg in problems)
        failing += bool(problems)
    assert failing >= 100


def test_a_failed_generator_traces_every_relator_whole():
    # b^-1's column with two entries swapped fails g then g^-1; a^2, b^3 and
    # a b a b hold on the a and b columns, and a b fails.  Halves through
    # the b^-1 column would also fail b^3 and a b a b.
    t = coset_table(pres(S3))
    col = column(-2)
    bad = changed(t, [(0, col, t.rows[1][col]), (1, col, t.rows[0][col])])
    q = pres("< a, b | a^2, b^3, a b a b, a b >")
    assert validate_table(q, bad) == reference_validate(q, bad) == [
        "g then g^-1 does not return to start (g=2, coset=3)",
        "relator 4 does not fix coset 0",
    ]


def test_the_table_check_takes_one_gather_per_letter_less_two(monkeypatch):
    # S7's Coxeter presentation: 6 generators, one gather each; then 6
    # relators s_i^2 with none, 5 of 6 letters with 4 each and 10 of 4
    # letters with 2 each (a whole trace of every relator took 61)
    p = coxeter_symmetric(7)
    t = coset_table(p)
    calls = []

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(coset, "multiply", counted)
    assert validate_table(p, t) == []
    assert len(calls) == 46

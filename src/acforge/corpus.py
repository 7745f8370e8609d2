"""Built-in example presentations and their machine-checkable expectations.

Every entry records only what the tools can verify.  For presentations
whose group is nontrivial by an external theorem but not certified here,
the expectation merely forbids the tools from *claiming* the opposite;
inconclusive outcomes (coset cap, search limits) are acceptable.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .coset import CapExceeded, Finite, enumerate_cosets
from .intmatrix import is_perfect_presentation
from .moves import replay
from .presentation import MAX_LETTERS, Presentation, format_presentation, is_balanced, parse_presentation
from .quotient import find_nontrivial_quotient, verify_witness
from .search import SearchLimits, search_trivialization


def higman_presentation(m: int, variant: Tuple[int, int] = (1, 2)) -> Presentation:
    """Cyclic family on m generators with r_i = a_i^-1 a_{i+1}^-p a_i a_{i+1}^q.

    ``variant`` is (p, q): (1, 2) makes each generator conjugate the next to
    its square, (2, 3) the square-to-cube variant.  Indices are mod m.  For
    m >= 4 both families are known to present infinite groups.  Raises
    ValueError if the m relators would hold more than ``MAX_LETTERS``
    letters.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p, q = variant
    letters = m * (2 + p + q)
    if letters > MAX_LETTERS:
        raise ValueError(f"m = {m} needs {letters} letters, more than {MAX_LETTERS}")
    gens = tuple(f"a{i + 1}" for i in range(m))
    relators = []
    for i in range(1, m + 1):
        nxt = i % m + 1
        relators.append((-i,) + (-nxt,) * p + (i,) + (nxt,) * q)
    return Presentation(gens, tuple(relators))


# what the coset enumerator is allowed to report
EXACT = "exact"  # must close with exactly ``order`` cosets
TRIVIAL_OR_CAP = "trivial-or-cap"  # order 1 or inconclusive; never a nontrivial claim
NONTRIVIAL_OR_CAP = "nontrivial-or-cap"  # order > 1 or inconclusive; never order 1


class CorpusEntry(NamedTuple):
    """A balanced perfect presentation and what each tool should report on it."""

    name: str
    text: str
    order_expectation: str = EXACT
    order: Optional[int] = None
    max_cosets: int = 10_000
    ac_trivializable: Optional[bool] = None  # None: skip the search
    search_depth: int = 12
    quotient_degree: Optional[int] = None
    quotient_order: Optional[int] = None

    def presentation(self) -> Presentation:
        return parse_presentation(self.text)


RAPAPORT_TEXT = "< a, b, c | b^-1 c^-2 b c^3, c^-1 a^-2 c a^3, a^-1 b^-2 a b^3 >"
POINCARE_TEXT = "< a, b | a b^2 a b^-1, a^4 b a^-1 b >"
DUAL_RAPAPORT_TEXT = "< alpha, beta, gamma | alpha^3 alpha^-2, beta^3 beta^-2, gamma^3 gamma^-2 >"
DUAL_POINCARE_TEXT = "< alpha, beta | alpha^2 beta^3, alpha^-1 beta^-2 >"
TRIVIAL23_TEXT = "< a, b | a^-1 b^-2 a b^3, b^-1 a^-2 b a^3 >"

ENTRIES: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="rapaport",
        text=RAPAPORT_TEXT,
        # nontrivial by Rapaport's theorem; our quotient search up to the
        # default degree is one-sided, so only "order 1" would be a regression
        order_expectation=NONTRIVIAL_OR_CAP,
        max_cosets=5_000,
    ),
    CorpusEntry(
        name="poincare",
        text=POINCARE_TEXT,
        order=120,
        quotient_degree=5,
        quotient_order=60,
    ),
    CorpusEntry(
        name="dual_rapaport",
        text=DUAL_RAPAPORT_TEXT,
        order=1,
        ac_trivializable=True,
    ),
    CorpusEntry(
        name="dual_poincare",
        text=DUAL_POINCARE_TEXT,
        order=1,
        ac_trivializable=True,
    ),
    CorpusEntry(
        name="trivial23",
        text=TRIVIAL23_TEXT,
        order_expectation=TRIVIAL_OR_CAP,
        # the search is expected to fail; a reduced depth keeps the corpus
        # fast, and no test runs it to the default limits
        ac_trivializable=False,
        search_depth=4,
    ),
)


def family_entries() -> Tuple[CorpusEntry, ...]:
    out = []
    for m in (4, 5, 6):
        for (p, q), tag in (((1, 2), "higman"), ((2, 3), "higman23")):
            pres = higman_presentation(m, variant=(p, q))
            out.append(
                CorpusEntry(
                    name=f"{tag}_m{m}",
                    text=format_presentation(pres),
                    order_expectation=NONTRIVIAL_OR_CAP,  # infinite groups
                    max_cosets=2_000,
                )
            )
    return tuple(out)


def all_entries() -> Tuple[CorpusEntry, ...]:
    return ENTRIES + family_entries()


def check_entry(entry: CorpusEntry) -> List[str]:
    """Run every expectation of one entry; returns failure messages."""
    problems: List[str] = []
    p = entry.presentation()
    if not is_balanced(p):
        problems.append("not balanced")
    if not is_perfect_presentation(p):
        problems.append("not perfect")

    result = enumerate_cosets(p, entry.max_cosets)
    if entry.order_expectation == EXACT:
        if not (isinstance(result, Finite) and result.order == entry.order):
            problems.append(f"order: expected {entry.order}, got {result}")
    elif entry.order_expectation == TRIVIAL_OR_CAP:
        if not (isinstance(result, Finite) and result.order == 1 or isinstance(result, CapExceeded)):
            problems.append(f"order: nontriviality wrongly claimed: {result}")
    elif entry.order_expectation == NONTRIVIAL_OR_CAP:
        if isinstance(result, Finite) and result.order == 1:
            problems.append("order: triviality wrongly claimed")

    if entry.ac_trivializable is not None:
        limits = SearchLimits(max_depth=entry.search_depth)
        search = search_trivialization(p, limits)
        if entry.ac_trivializable:
            if not search.found:
                problems.append("search: expected a trivialization certificate")
            elif not replay(search.certificate):
                problems.append("search: certificate does not replay")
        elif search.found:
            problems.append("search: unexpectedly found a certificate")

    if entry.quotient_degree is not None:
        witness = find_nontrivial_quotient(p, entry.quotient_degree)
        if witness is None:
            problems.append(f"quotient: expected a witness at degree {entry.quotient_degree}")
        elif not verify_witness(p, witness):
            problems.append("quotient: witness does not re-verify")
        elif entry.quotient_order is not None and witness.image_order != entry.quotient_order:
            problems.append(
                f"quotient: expected image order {entry.quotient_order}, got {witness.image_order}"
            )
    return problems

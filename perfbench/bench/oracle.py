"""An independent reference for Definition 2.6, written against the paper.

Nothing here calls into :mod:`repro`: the oracle parses the template text
itself, enumerates type-0/1/2 instantiations itself (Definitions 2.2-2.4)
and computes

    R ↑ S = |π_var(R)(J(R) ⋈ J(S))| / |J(R)|   (0 when the numerator is 0)
    sup(r) = max over body atoms a of {a} ↑ body
    cnf(r) = body ↑ head
    cvr(r) = head ↑ body

as exact :class:`~fractions.Fraction` values from plain-Python counts over
the generated tuples, then keeps the rules strictly above every enabled
threshold.  It also decides the Hamiltonian-path and ∃C-3SAT source
instances by brute force.

Rules are compared as text with the type-2 padding variables renamed in
order of first appearance, because the engine numbers them by its own
enumeration order.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from collections import Counter
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

Atom = tuple[str, tuple[str, ...]]
Answer = tuple[str, Fraction, Fraction, Fraction]

_ATOM = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*")
_PADDING = re.compile(r"_T2_\d+|_PAD\d+")


# ----------------------------------------------------------------------
# templates and instantiations
# ----------------------------------------------------------------------
class Template:
    """A parsed metaquery: atoms of ``(symbol, terms, is_pattern)``."""

    def __init__(self, head: tuple[str, tuple[str, ...], bool],
                 body: list[tuple[str, tuple[str, ...], bool]]) -> None:
        self.head = head
        self.body = body


def parse_template(text: str, arities: dict[str, int]) -> Template:
    """``H(..) <- B1(..), ..``; a symbol is a relation iff the database has it."""
    head_text, _, body_text = text.partition("<-")
    atoms = []
    for chunk in (head_text, body_text):
        pos = 0
        found = []
        while pos < len(chunk):
            match = _ATOM.match(chunk, pos)
            if match is None:
                raise ValueError(f"cannot parse metaquery {text!r}")
            name = match.group(1)
            terms = tuple(t.strip() for t in match.group(2).split(",") if t.strip())
            for t in terms:
                if not (t[0].isupper() or t[0] == "_"):
                    raise ValueError(f"constant {t!r} in {text!r}: only variables are supported")
            found.append((name, terms, name not in arities))
            pos = match.end()
            if pos < len(chunk) and chunk[pos] == ",":
                pos += 1
        atoms.append(found)
    (head,), body = atoms
    return Template(head, body)


def _images(terms: tuple[str, ...], arity: int, itype: int,
            padding: Iterator[str]) -> Iterator[tuple[str, ...]]:
    """Argument lists of valid type-``itype`` images of a pattern on a relation."""
    k = len(terms)
    if itype == 0:
        if arity == k:
            yield terms
        return
    if itype == 1:
        if arity != k:
            return
        seen = set()
        for perm in itertools.permutations(terms):
            if perm not in seen:
                seen.add(perm)
                yield perm
        return
    if arity < k:
        return
    seen_layouts = set()
    for placement in itertools.permutations(range(arity), k):
        layout: list[str | None] = [None] * arity
        for term, pos in zip(terms, placement):
            layout[pos] = term
        key = tuple(layout)
        if key in seen_layouts:
            continue
        seen_layouts.add(key)
        yield tuple(t if t is not None else next(padding) for t in layout)


def instantiations(template: Template, arities: dict[str, int], itype: int) -> Iterator[list[Atom]]:
    """Every evaluable type-``itype`` instantiated rule, head first."""
    schemes = [template.head] + template.body
    patterns: list[tuple[str, tuple[str, ...]]] = []
    for symbol, terms, is_pattern in schemes:
        if is_pattern and (symbol, terms) not in patterns:
            patterns.append((symbol, terms))
    if itype in (0, 1):
        arity_of: dict[str, int] = {}
        for symbol, terms in patterns:
            if arity_of.setdefault(symbol, len(terms)) != len(terms):
                raise ValueError("type-0/1 instantiations need a pure metaquery")
    names = sorted(arities)
    counter = itertools.count(1)
    padding = (f"_PAD{i}" for i in counter)

    def backtrack(i: int, images: dict, assignment: dict) -> Iterator[dict]:
        if i == len(patterns):
            yield images
            return
        symbol, terms = patterns[i]
        relations = [assignment[symbol]] if symbol in assignment else names
        for relation in relations:
            for args in _images(terms, arities[relation], itype, padding):
                images[(symbol, terms)] = (relation, args)
                fresh = symbol not in assignment
                assignment[symbol] = relation
                yield from backtrack(i + 1, images, assignment)
                if fresh:
                    del assignment[symbol]
                del images[(symbol, terms)]

    for images in backtrack(0, {}, {}):
        rule = [images[(s, t)] if p else (s, t) for s, t, p in schemes]
        if all(name in arities and arities[name] == len(args) for name, args in rule):
            yield rule


def count_instantiations(template: Template, arities: dict[str, int], itype: int) -> int:
    return sum(1 for _ in instantiations(template, arities, itype))


def render(rule: Sequence[Atom]) -> str:
    """The rule text, padding variables renamed in order of appearance."""
    def atom(a: Atom) -> str:
        return f"{a[0]}({', '.join(a[1])})"
    return canonical(f"{atom(rule[0])} <- {', '.join(atom(a) for a in rule[1:])}")


def canonical(rule_text: str) -> str:
    names: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        return names.setdefault(match.group(0), f"_F{len(names) + 1}")

    return _PADDING.sub(rename, rule_text)


# ----------------------------------------------------------------------
# evaluation over a database state
# ----------------------------------------------------------------------
class State:
    """Relation name -> set of tuples, with a version per relation.

    Evaluation results are memoized per relation version, so after a write
    only what reads the written relation is recomputed.
    """

    def __init__(self, relations: dict[str, Iterable[tuple]]) -> None:
        self.rows = {name: set(map(tuple, rows)) for name, rows in relations.items()}
        self.version = {name: 0 for name in relations}
        self._memo: dict[Any, Any] = {}

    @property
    def arities(self) -> dict[str, int]:
        return {name: len(next(iter(rows))) for name, rows in self.rows.items() if rows}

    def write(self, relation: str, remove: Iterable[tuple], add: Iterable[tuple]) -> None:
        rows = self.rows[relation]
        for row in remove:
            rows.discard(tuple(row))
        for row in add:
            rows.add(tuple(row))
        self.version[relation] += 1
        self._memo = {k: v for k, v in self._memo.items() if relation not in k[1]}

    def _key(self, kind: str, *atom_lists: Sequence[Atom]) -> tuple:
        names = frozenset(a[0] for atoms in atom_lists for a in atoms if a[0] in self.rows)
        return (kind, names, tuple(map(tuple, atom_lists)),
                tuple(self.version[n] for n in sorted(names)))

    def atom(self, atom: Atom) -> tuple[tuple[str, ...], set[tuple]]:
        """``J({atom})``: distinct variables and the tuples binding them."""
        key = self._key("atom", [atom])
        hit = self._memo.get(key)
        if hit is None:
            name, terms = atom
            variables = tuple(dict.fromkeys(terms))
            first = [terms.index(v) for v in variables]
            same = [(i, terms.index(t)) for i, t in enumerate(terms) if terms.index(t) != i]
            tuples = {
                tuple(row[p] for p in first)
                for row in self.rows[name]
                if all(row[i] == row[j] for i, j in same)
            }
            hit = self._memo[key] = (variables, tuples)
        return hit

    def join(self, atoms: Sequence[Atom]) -> tuple[tuple[str, ...], set[tuple]]:
        """``J(atoms)``: the natural join of the atom relations, left to right."""
        key = self._key("join", atoms)
        hit = self._memo.get(key)
        if hit is None:
            variables, tuples = self.atom(atoms[0])
            for atom in atoms[1:]:
                variables, tuples = _natural_join((variables, tuples), self.atom(atom))
            hit = self._memo[key] = (variables, tuples)
        return hit

    def keys(self, atoms: Sequence[Atom], variables: tuple[str, ...]) -> set:
        """The distinct projections of ``J(atoms)`` onto ``variables``."""
        key = self._key("keys", atoms, [("", variables)])
        hit = self._memo.get(key)
        if hit is None:
            all_vars, tuples = self.join(atoms)
            getter = itemgetter(*[all_vars.index(v) for v in variables])
            hit = self._memo[key] = set(map(getter, tuples))
        return hit

    def fraction(self, r_atoms: Sequence[Atom], s_atoms: Sequence[Atom]) -> Fraction:
        """``R ↑ S`` of Definition 2.6.

        ``π_var(R)(J(R) ⋈ J(S))`` holds the tuples of ``J(R)`` that agree
        with some tuple of ``J(S)`` on the shared variables, so the
        numerator is a semijoin count.
        """
        key = self._key("frac", r_atoms, s_atoms)
        hit = self._memo.get(key)
        if hit is None:
            r_vars, r_tuples = self.join(r_atoms)
            s_vars, s_tuples = self.join(s_atoms)
            shared = tuple(v for v in r_vars if v in s_vars)
            if not shared:
                numerator = len(r_tuples) if s_tuples else 0
            else:
                present = self.keys(s_atoms, shared).__contains__
                getter = itemgetter(*[r_vars.index(v) for v in shared])
                numerator = sum(map(present, map(getter, r_tuples)))
            hit = Fraction(numerator, len(r_tuples)) if numerator else Fraction(0)
            self._memo[key] = hit
        return hit

    def indices(self, rule: Sequence[Atom]) -> tuple[Fraction, Fraction, Fraction]:
        head, body = [rule[0]], list(rule[1:])
        sup = max(self.fraction([a], body) for a in body)
        return sup, self.fraction(body, head), self.fraction(head, body)

    def answers(self, template: Template, itype: int) -> list[Answer]:
        """Every instantiated rule with its exact ``(sup, cnf, cvr)``."""
        out = []
        for rule in instantiations(template, self.arities, itype):
            out.append((render(rule), *self.indices(rule)))
        return out


def _natural_join(left, right):
    l_vars, l_tuples = left
    r_vars, r_tuples = right
    shared = [v for v in r_vars if v in l_vars]
    extra = [i for i, v in enumerate(r_vars) if v not in l_vars]
    out_vars = l_vars + tuple(r_vars[i] for i in extra)
    if not shared:
        rests = [tuple(t[i] for i in extra) for t in r_tuples]
        return out_vars, {t + rest for t in l_tuples for rest in rests}
    r_key = itemgetter(*[r_vars.index(v) for v in shared])
    l_key = itemgetter(*[l_vars.index(v) for v in shared])
    index: dict[Any, list[tuple]] = {}
    for t in r_tuples:
        index.setdefault(r_key(t), []).append(tuple(t[i] for i in extra))
    out = set()
    for t in l_tuples:
        for rest in index.get(l_key(t), ()):
            out.add(t + rest)
    return out_vars, out


# ----------------------------------------------------------------------
# thresholds and comparison
# ----------------------------------------------------------------------
def passes(answer: Answer, thresholds: dict[str, Fraction]) -> bool:
    """The strict ``> k`` test of every enabled threshold."""
    values = {"support": answer[1], "confidence": answer[2], "cover": answer[3]}
    return all(values[name] > k for name, k in thresholds.items())


def parse_thresholds(raw: dict[str, str]) -> dict[str, Fraction]:
    return {name: Fraction(value) for name, value in raw.items()}


def compare(got: Sequence[Answer], expected: Sequence[Answer],
            thresholds: dict[str, Fraction]) -> list[str]:
    """Problems with ``got`` against the oracle's answers; empty when equal.

    ``got`` must equal the oracle's threshold-passing answers as a multiset,
    and every index it reports must be strictly above its threshold.
    """
    problems = []
    for answer in got:
        if not passes(answer, thresholds):
            problems.append(f"not above threshold: {answer}")
    want = Counter(a for a in expected if passes(a, thresholds))
    have = Counter(got)
    for answer in sorted(want - have, key=str)[:3]:
        problems.append(f"missing or wrong: {answer}")
    for answer in sorted(have - want, key=str)[:3]:
        problems.append(f"unexpected: {answer}")
    return problems


def self_test(got: Sequence[Answer], expected: Sequence[Answer],
              thresholds: dict[str, Fraction]) -> list[str]:
    """Show that :func:`compare` rejects three corruptions of a correct set.

    Returns the corruptions that were *not* rejected (empty on success).
    ``got`` must be a correct, non-empty answer set.
    """
    first = got[0]
    sup = first[1]
    # One tuple more (or fewer) in the numerator of the support.
    denominator = sup.denominator if sup else 1
    bumped = sup + Fraction(1, denominator) if sup < 1 else sup - Fraction(1, denominator)
    off_by_one = [(first[0], bumped, first[2], first[3])] + list(got[1:])
    dropped = list(got[1:])
    rejected = [a for a in expected if not passes(a, thresholds)]
    extra = list(got) + [rejected[0] if rejected else first]
    failures = []
    for name, corrupted in (("off-by-one index", off_by_one), ("dropped answer", dropped),
                            ("extra answer", extra)):
        if not compare(corrupted, expected, thresholds):
            failures.append(name)
    return failures


# ----------------------------------------------------------------------
# Figure-5 source instances, decided by brute force
# ----------------------------------------------------------------------
def hamiltonian_path_exists(vertices: Sequence[str], edges: Iterable[Sequence[str]]) -> bool:
    adjacent = {frozenset(e) for e in edges}
    return any(
        all(frozenset(pair) in adjacent for pair in zip(order, order[1:]))
        for order in itertools.permutations(vertices)
    )


def ec3sat_holds(clauses: Sequence[Sequence[Sequence]], pi: Sequence[str],
                 chi: Sequence[str], k_prime: int) -> bool:
    """Some assignment of ``pi`` leaves at least ``k_prime`` models over ``chi``."""
    def satisfied(assignment: dict[str, bool]) -> bool:
        return all(any(assignment[v] == positive for v, positive in clause) for clause in clauses)

    for pi_values in itertools.product((False, True), repeat=len(pi)):
        count = 0
        for chi_values in itertools.product((False, True), repeat=len(chi)):
            if satisfied(dict(zip(pi, pi_values)) | dict(zip(chi, chi_values))):
                count += 1
        if count >= k_prime:
            return True
    return False


def decide_source(instance: dict[str, Any]) -> bool:
    source = instance["source"]
    if instance["kind"] == "hamiltonian":
        return hamiltonian_path_exists(source["vertices"], source["edges"])
    return ec3sat_holds(source["clauses"], source["pi"], source["chi"], source["k_prime"])


def run_self_test() -> list[str]:
    """The comparison's self-test on a small fixed database."""
    state = State({
        "p": [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")],
        "q": [("b", "c"), ("c", "d"), ("a", "b")],
        "t": [("a", "b", "x"), ("b", "c", "y")],
    })
    thresholds = {"support": Fraction(1, 4)}
    template = parse_template("R(X0, X2) <- P1(X0, X1), P2(X1, X2)", state.arities)
    expected = state.answers(template, 2)
    got = [a for a in expected if passes(a, thresholds)]
    if not got or compare(got, expected, thresholds):
        return ["the fixed example has no correct non-empty answer set"]
    return self_test(got, expected, thresholds)

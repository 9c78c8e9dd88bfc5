"""Seeded input generation: databases, request plans and decision instances.

Everything a workload feeds the program is made here from ``--seed`` with
:class:`random.Random` alone, drawing only while walking sorted lists, so the
bytes do not depend on ``PYTHONHASHSEED``.  The repository's own telecom and
university generators draw while iterating sets of strings and are therefore
not used.  :func:`generate` writes one directory per workload:

* ``db/<relation>.csv`` — the database the program loads;
* ``decide/<instance>/<relation>.csv`` — the Figure-5 reduction databases
  (``query_scale`` only);
* ``plan.json`` — the request mix, the decision sources and (``serve_rw``)
  the write sequence.

:func:`fingerprint` hashes every file of such a directory.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
import shutil
from fractions import Fraction
from pathlib import Path
from typing import Any

WORKLOADS = ("data_scale", "query_scale", "serve_rw")

#: ``serve_rw`` write blocks generated ahead of a run; a run that would need
#: more stops with an error instead of repeating writes.
SERVE_BLOCKS = 4000


# ----------------------------------------------------------------------
# template text
# ----------------------------------------------------------------------
def _slots(names: list[str], fixed: dict[int, str]) -> list[str]:
    """Predicate symbols: pattern names, with some slots fixed to relations."""
    return [fixed.get(i, name) for i, name in enumerate(names)]


def chain2(fixed: dict[int, str]) -> str:
    h, p1, p2 = _slots(["R", "P1", "P2"], fixed)
    return f"{h}(X0, X1) <- {p1}(X0, X1), {p2}(X1, X2)"


def transitive2(fixed: dict[int, str]) -> str:
    h, p1, p2 = _slots(["R", "P1", "P2"], fixed)
    return f"{h}(X0, X2) <- {p1}(X0, X1), {p2}(X1, X2)"


def star2(fixed: dict[int, str]) -> str:
    h, p1, p2 = _slots(["R", "P1", "P2"], fixed)
    return f"{h}(H, X1) <- {p1}(H, X1), {p2}(H, X2)"


def chain3(fixed: dict[int, str]) -> str:
    h, p1, p2, p3 = _slots(["R", "P1", "P2", "P3"], fixed)
    return f"{h}(X0, X1) <- {p1}(X0, X1), {p2}(X1, X2), {p3}(X2, X3)"


def star3(fixed: dict[int, str]) -> str:
    h, p1, p2, p3 = _slots(["R", "P1", "P2", "P3"], fixed)
    return f"{h}(H, X1) <- {p1}(H, X1), {p2}(H, X2), {p3}(H, X3)"


def cyclic3(fixed: dict[int, str]) -> str:
    h, p1, p2, p3 = _slots(["R", "P1", "P2", "P3"], fixed)
    return f"{h}(X0, X1) <- {p1}(X0, X1), {p2}(X1, X2), {p3}(X2, X0)"


def inclusion_probe(relation: str) -> str:
    """``P(X0, X1) <- w(X0, X1)``: every index moves when ``w`` changes size."""
    return f"P(X0, X1) <- {relation}(X0, X1)"


def frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ----------------------------------------------------------------------
# relations
# ----------------------------------------------------------------------
def _node(i: int) -> str:
    return f"v{i:04d}"


def _graph(rng: random.Random, nodes: int, base: int, closure: int) -> list[tuple[int, int]]:
    """A random digraph plus some of its two-hop shortcuts (planted joins)."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < base:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if u != v:
            edges.add((u, v))
    base_list = sorted(edges)
    successors: dict[int, list[int]] = {}
    for u, v in base_list:
        successors.setdefault(u, []).append(v)
    added: set[tuple[int, int]] = set()
    for _ in range(closure * 20):
        if len(added) >= closure:
            break
        u, v = base_list[rng.randrange(len(base_list))]
        nexts = successors.get(v)
        if not nexts:
            continue
        w = nexts[rng.randrange(len(nexts))]
        if w != u and (u, w) not in edges:
            added.add((u, w))
    return sorted(edges | added)


def _binary(rng: random.Random, graph: list[tuple[int, int]], nodes: int,
            size: int, planted: int) -> list[tuple[str, str]]:
    """``size`` distinct pairs, ``planted`` of them from the shared graph."""
    rows = set(rng.sample(graph, min(planted, len(graph))))
    while len(rows) < size:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        rows.add((u, v))
    return [(_node(u), _node(v)) for u, v in sorted(rows)]


def _ternary(rng: random.Random, graph: list[tuple[int, int]], nodes: int,
             size: int) -> list[tuple[str, str, str]]:
    rows: set[tuple[int, int, int]] = set()
    while len(rows) < size:
        if rng.random() < 0.5:
            u, v = graph[rng.randrange(len(graph))]
        else:
            u, v = rng.randrange(nodes), rng.randrange(nodes)
        rows.add((u, v, rng.randrange(nodes)))
    return [(_node(u), _node(v), _node(w)) for u, v, w in sorted(rows)]


def columns_for(arity: int) -> list[str]:
    return ["a", "b", "c", "d", "e", "f", "g", "h"][:arity] if arity <= 8 else [
        f"c{i}" for i in range(arity)
    ]


def write_csv(path: Path, columns: list[str], rows: list[tuple]) -> None:
    """One relation as CSV: header row, then the rows sorted as strings."""
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in sorted(tuple(str(v) for v in r) for r in rows))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_db(directory: Path, relations: dict[str, list[tuple]]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in sorted(relations):
        rows = relations[name]
        write_csv(directory / f"{name}.csv", columns_for(len(rows[0])), rows)


# ----------------------------------------------------------------------
# data_scale: five 2000-tuple binary relations, fresh engine per request
# ----------------------------------------------------------------------
DATA_RELATIONS = 5
DATA_TUPLES = 2000


def _data_scale(rng: random.Random) -> tuple[dict[str, list[tuple]], dict[str, Any]]:
    nodes = 1500
    graph = _graph(rng, nodes, base=1400, closure=600)
    names = [f"r{i}" for i in range(DATA_RELATIONS)]
    relations = {
        name: _binary(rng, graph, nodes, DATA_TUPLES, planted=1100) for name in names
    }

    def fix(*slots: int) -> dict[int, str]:
        return dict(zip(slots, rng.sample(names, len(slots))))

    sup, tiny = {"support": Fraction(1, 50)}, Fraction(1, 1000)

    def light() -> list[tuple]:
        return [
            ("chain2", fix(1), 0, "findrules", sup),
            ("transitive2", fix(2), 0, "naive", {"cover": tiny}),
            ("chain2", fix(0, 1), 1, "findrules", sup),
            ("chain2", fix(0, 1), 1, "naive", sup),
            ("transitive2", fix(0, 1), 1, "findrules", {**sup, "cover": tiny}),
            ("transitive2", fix(0, 2), 1, "naive", {"confidence": tiny}),
            ("transitive2", fix(1, 2), 1, "naive", sup),
            ("chain2", fix(0, 1), 2, "naive", sup),
            ("chain2", fix(1, 2), 2, "findrules", sup),
            ("transitive2", fix(1, 2), 2, "findrules", sup),
            ("chain2", fix(0, 2), 1, "findrules", sup),
        ]

    # (template, fixed slots, itype, algorithm, thresholds); every request is
    # streamed on a fresh engine.  The two unfixed type-0 requests enumerate
    # 125 instantiations each; the eleven others fix one or two predicates
    # (distinct relations drawn by the seed; the relations are alike, so a
    # round's cost does not depend on the seed) and enumerate a few dozen.
    # A round holds three draws of the eleven and the two unfixed requests
    # three times: 39 requests, so the latency distribution is dense around
    # its median and the 90 % cut point lies inside the cheaper unfixed
    # request's samples (the unfixed ones are 6/39 of the samples).
    heavy = [("chain2", {}, 0, "naive", sup),
             ("transitive2", {}, 0, "findrules", {**sup, "confidence": tiny})]
    round_ = heavy * 3 + light() + light() + light()
    builders = {"chain2": chain2, "transitive2": transitive2}
    requests = [
        {
            "id": f"d{i}",
            "class": f"{shape}-t{itype}-{algorithm}{'-fixed' if fixed else ''}",
            "metaquery": builders[shape](fixed),
            "itype": itype,
            "algorithm": algorithm,
            "thresholds": {k: frac(v) for k, v in thresholds.items()},
        }
        for i, (shape, fixed, itype, algorithm, thresholds) in enumerate(round_)
    ]
    rng.shuffle(requests)
    # The warm-up touches every relation: an unfixed type-0 chain.
    warmup = {"id": "warmup", "class": "warmup", "metaquery": chain2({}), "itype": 0,
              "algorithm": "naive", "thresholds": {"support": "1/2"}}
    return relations, {"round": requests, "warmup": warmup}


# ----------------------------------------------------------------------
# query_scale: many small relations, one persistent engine
# ----------------------------------------------------------------------
QUERY_BINARY, QUERY_BINARY_TUPLES = 8, 60
QUERY_TERNARY, QUERY_TERNARY_TUPLES = 4, 50
#: Schema-generated templates enumerating more type-0 instantiations than
#: this are left out, so that no single request dominates a round.
QUERY_MAX_INSTANTIATIONS = 600


def _hamiltonian_graph(rng: random.Random, vertices: int, extra: int,
                       path: bool) -> dict[str, Any]:
    """A graph with the Hamiltonian path ``u0..u5``, or one that cannot have one.

    Without a path, ``u0`` is the only neighbour of three leaves; a path has
    at most two endpoints, so no Hamiltonian path exists.  Random extra
    edges never touch the leaves.
    """
    names = [f"u{i}" for i in range(vertices)]
    edges: set[tuple[str, str]] = set()
    if path:
        # The path u0-u1-..-u5 is the first argument order the engine
        # tries, so the cost of a YES decision does not depend on the seed.
        edges.update(zip(names, names[1:]))
        free = names
    else:
        edges.update(("u0", leaf) for leaf in names[1:4])
        free = [names[0]] + names[4:]
    pairs = [(a, b) for i, a in enumerate(free) for b in free[i + 1:] if (a, b) not in edges]
    edges.update(rng.sample(pairs, min(extra, len(pairs))))
    return {"vertices": names, "edges": [list(e) for e in sorted(edges)]}


def _ec3sat_source(rng: random.Random, clauses: int) -> dict[str, Any]:
    names = ["x1", "x2", "x3", "x4"]
    built = []
    for _ in range(clauses):
        chosen = rng.sample(names, 3)
        built.append([[v, rng.random() < 0.5] for v in chosen])
    return {"clauses": built, "pi": ["x1", "x2"], "chi": ["x3", "x4"],
            "k_prime": rng.randrange(1, 5)}


#: An ∃C-3SAT NO instance (no assignment of x1, x2 leaves 4 models over
#: x3, x4) that ``ec3sat_reduction_type0`` turns into a YES instance: with
#: three clauses the head relation ``call`` is ternary, so a predicate
#: variable meant for ``pa``/``pb`` can take ``call``'s all-ones tuple,
#: setting a variable and its negation both true.  It does not depend on the
#: seed; every evaluation of it is counted as a failed operation.
KNOWN_FAULT_EC3SAT = {
    "clauses": [[["x4", False], ["x2", True], ["x3", False]],
                [["x2", False], ["x3", True], ["x1", True]],
                [["x2", False], ["x1", False], ["x4", True]]],
    "pi": ["x1", "x2"], "chi": ["x3", "x4"], "k_prime": 4,
}


def _reduction_instances(rng: random.Random, root: Path) -> list[dict[str, Any]]:
    """Figure-5 decision instances built by :mod:`repro.reductions`.

    The sources (graphs, formulas) come from this module's generator; the
    reductions turn them into a database and a metaquery.  The database is
    written to CSV like every other input; the source stays in the plan so
    the oracle can decide it by brute force.
    """
    from repro.reductions.ec3sat import (
        EC3SATInstance,
        ec3sat_reduction_type0,
        ec3sat_reduction_type12,
    )
    from repro.reductions.hamiltonian import hamiltonian_path_reduction
    from repro.reductions.sat import CNFFormula, Clause, Literal
    from repro.workloads.graphs import Graph

    instances = []
    for i, (path, itype) in enumerate(((True, 1), (False, 2))):
        source = _hamiltonian_graph(rng, 6, 3, path)
        graph = Graph(source["vertices"], [tuple(e) for e in source["edges"]])
        problem = hamiltonian_path_reduction(graph, index="sup", itype=itype)
        instances.append(("hamiltonian", f"ham{i}", source, problem))
    for i, (clauses, itype) in enumerate(((4, 0), (4, 1))):
        source = _ec3sat_source(rng, clauses)
        formula = CNFFormula(
            Clause(Literal(v, positive) for v, positive in clause) for clause in source["clauses"]
        )
        instance = EC3SATInstance(formula, source["k_prime"], source["pi"], source["chi"])
        problem = (
            ec3sat_reduction_type0(instance) if itype == 0
            else ec3sat_reduction_type12(instance, itype=itype)
        )
        instances.append(("ec3sat", f"sat{i}", source, problem))
    # A fixed NO instance with three clauses: its head relation is ternary
    # like the reduction's value relations, and the engine answers YES.
    source = dict(KNOWN_FAULT_EC3SAT)
    formula = CNFFormula(
        Clause(Literal(v, positive) for v, positive in clause) for clause in source["clauses"]
    )
    problem = ec3sat_reduction_type0(
        EC3SATInstance(formula, source["k_prime"], source["pi"], source["chi"]))
    instances.append(("ec3sat", "fault", source, problem))
    out = []
    for kind, name, source, problem in instances:
        _write_db(root / "decide" / name,
                  {rel.name: sorted(rel.to_rows()) for rel in problem.db})
        out.append({
            "id": name, "kind": kind, "source": source,
            "metaquery": str(problem.mq), "index": problem.index.name,
            "k": frac(problem.k), "itype": int(problem.itype),
        })
    return out


def _query_scale(rng: random.Random, root: Path) -> tuple[dict[str, list[tuple]], dict[str, Any]]:
    from repro.core.schema_gen import generate_metaqueries
    from repro.relational.schema import DatabaseSchema, RelationSchema

    from bench.oracle import count_instantiations, parse_template

    nodes = 40
    graph = _graph(rng, nodes, base=70, closure=30)
    relations: dict[str, list[tuple]] = {}
    for i in range(QUERY_BINARY):
        relations[f"b{i}"] = _binary(rng, graph, nodes, QUERY_BINARY_TUPLES,
                                     planted=QUERY_BINARY_TUPLES // 2)
    for i in range(QUERY_TERNARY):
        relations[f"t{i}"] = _ternary(rng, graph, nodes, QUERY_TERNARY_TUPLES)
    binary = sorted(n for n in relations if n.startswith("b"))
    arities = {name: len(rows[0]) for name, rows in relations.items()}

    def fix(*slots: int) -> dict[int, str]:
        return dict(zip(slots, rng.sample(binary, len(slots))))

    sup = {"support": Fraction(1, 20)}

    schema = DatabaseSchema(RelationSchema(n, columns_for(a)) for n, a in sorted(arities.items()))
    mines = []
    for j, mq in enumerate(generate_metaqueries(schema, max_body_length=3)):
        text = str(mq)
        if count_instantiations(parse_template(text, arities), arities, 0) > QUERY_MAX_INSTANTIATIONS:
            continue
        mines.append((f"schema-{mq.name}", text, 0, ("findrules", "naive")[j % 2], sup))
    mines += [
        ("chain3-t1", chain3(fix(0, 1, 2)), 1, "findrules", sup),
        ("star3-t1", star3(fix(0, 1, 2)), 1, "naive", sup),
        ("cyclic3-t0", cyclic3(fix(0, 1)), 0, "findrules", sup),
        ("cyclic3-t1", cyclic3(fix(0, 1, 2)), 1, "naive", {"confidence": Fraction(1, 100)}),
        ("chain2-t2", chain2(fix(0, 2)), 2, "findrules", sup),
        ("chain3-t2", chain3(fix(0, 1, 2)), 2, "findrules", sup),
        ("cyclic3-t2", cyclic3(fix(0, 1, 3)), 2, "naive", {"cover": Fraction(1, 100)}),
        ("star3-t0", star3(fix(0, 3)), 0, "findrules", {**sup, "confidence": Fraction(1, 100)}),
        ("chain3-t0", chain3(fix(0, 2)), 0, "naive", sup),
    ]
    requests: list[dict[str, Any]] = [
        {"id": f"q{i}", "kind": "mine", "class": name, "metaquery": text, "itype": itype,
         "algorithm": algorithm, "thresholds": {k: frac(v) for k, v in thresholds.items()}}
        for i, (name, text, itype, algorithm, thresholds) in enumerate(mines)
    ]
    # A fixed order, decisions spread through the round: the round shares
    # one engine, so the order decides which request fills which cache.
    # 20 templates and 5 decisions: with 25 requests a round, the 50 % and
    # 90 % cut points fall inside one request's samples.
    for position, instance in zip((4, 9, 14, 19, 24), _reduction_instances(rng, root)):
        label = "known-fault" if instance["id"] == "fault" else instance["kind"]
        requests.insert(position, {"id": instance["id"], "kind": "decide",
                                   "class": f"decide-{label}", "instance": instance})
    # The warm-up touches every relation: type-2 images of a binary pattern
    # reach the ternary relations too.
    warmup = {"id": "warmup", "kind": "mine", "class": "warmup",
              "metaquery": inclusion_probe("b0"), "itype": 2, "algorithm": "naive",
              "thresholds": {}}
    return relations, {"round": requests, "warmup": warmup}


# ----------------------------------------------------------------------
# serve_rw: one tenant, reads with in-place writes between them
# ----------------------------------------------------------------------
SERVE_RELATIONS = 5
SERVE_TUPLES = 600


def _serve_rw(rng: random.Random) -> tuple[dict[str, list[tuple]], dict[str, Any]]:
    nodes = 500
    graph = _graph(rng, nodes, base=500, closure=250)
    names = [f"s{i}" for i in range(SERVE_RELATIONS)]
    relations = {
        name: _binary(rng, graph, nodes, SERVE_TUPLES, planted=330) for name in names
    }

    def pick() -> str:
        return names[rng.randrange(len(names))]

    def fix(*slots: int) -> dict[int, str]:
        return dict(zip(slots, rng.sample(names, len(slots))))

    sup = {"support": Fraction(1, 50)}
    # Each template fixes one or two predicates (at most 25 instantiations):
    # here the wire, the request cache and invalidation do the work.
    templates = [
        ("chain2-t0", chain2(fix(1)), 0, "findrules", sup),
        ("transitive2-t0", transitive2(fix(2)), 0, "naive", sup),
        ("chain2-t1", chain2(fix(0, 1)), 1, "findrules", sup),
        ("transitive2-t2", transitive2(fix(0, 2)), 2, "naive", {"confidence": Fraction(1, 1000)}),
        ("star2-t0", star2(fix(1)), 0, "findrules", sup),
        ("chain2-t1b", chain2(fix(1, 2)), 1, "naive", sup),
    ]
    template_rows = [
        {"id": f"s{i}", "class": name, "metaquery": text, "itype": itype,
         "algorithm": algorithm, "thresholds": {k: frac(v) for k, v in thresholds.items()}}
        for i, (name, text, itype, algorithm, thresholds) in enumerate(templates)
    ]
    # The write sequence, simulated against the evolving state so that every
    # removal names a tuple present at that point.
    state = {name: sorted(rows) for name, rows in relations.items()}
    present = {name: set(rows) for name, rows in relations.items()}
    blocks = []
    for block in range(SERVE_BLOCKS):
        target = pick()
        current = state[target]
        removed = [current[i] for i in sorted(rng.sample(range(len(current)), 2))]
        added: list[tuple[str, str]] = []
        while len(added) < 2:
            donor = state[names[rng.randrange(len(names))]]
            row = donor[rng.randrange(len(donor))]
            if row not in present[target] and row not in added:
                added.append(row)
        for i in range(2):
            fresh = f"w{block:04d}{i}"
            other = _node(rng.randrange(nodes))
            added.append((fresh, other) if i == 0 else (other, fresh))
        for row in removed:
            current.remove(row)
            present[target].discard(row)
        for row in added:
            bisect.insort(current, row)
            present[target].add(row)
        a, b, c = rng.sample(range(len(templates)), 3)
        blocks.append({"relation": target, "remove": [list(r) for r in removed],
                       "add": [list(r) for r in added], "a": a, "b": b, "c": c})
    warmup = {"id": "warmup", "class": "warmup", "metaquery": chain2({}), "itype": 0,
              "algorithm": "naive", "thresholds": {"support": "1/2"}}
    return relations, {"templates": template_rows, "blocks": blocks, "warmup": warmup}


# ----------------------------------------------------------------------
def generate(workload: str, seed: int, root: Path) -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``root`` (replaced)."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "data_scale":
        relations, plan = _data_scale(rng)
    elif workload == "query_scale":
        relations, plan = _query_scale(rng, root)
    elif workload == "serve_rw":
        relations, plan = _serve_rw(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_db(root / "db", relations)
    plan["workload"] = workload
    plan["seed"] = seed
    (root / "plan.json").write_text(json.dumps(plan, sort_keys=True) + "\n", encoding="utf-8")


def fingerprint(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()

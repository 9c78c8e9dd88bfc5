"""The workloads, each a closed loop with one caller.

Run as ``python -m bench.workloads`` (with ``src`` and ``perfbench`` on
``PYTHONPATH``) by ``perfbench/run.py``, one fresh process per measured run,
so that peak memory and caches never carry over from another run.

Each workload has the same shape:

1. *setup*, timed in two batches (before and after the timed phase) and
   reported as the median: load the CSV directory with
   :func:`repro.relational.io.load_database`, build the engine or server,
   and send one untimed warm-up request;
2. the *timed phase*: whole rounds of the same requests until both
   ``--seconds`` have passed and ``--min-requests`` requests are done; each
   request is sent only after the previous reply has been read to its end;
3. *verification*, untimed: every output is checked against
   :mod:`bench.oracle` and against the properties the method must have.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from bench import client, oracle, tracing
from bench.inputs import frac, inclusion_probe

#: Setup is timed in two batches, before and after the timed phase, so that
#: setup_s (the median of both) samples the host at two moments.  A batch
#: repeats setup at least SETUP_MIN times, and further while it took under
#: SETUP_BUDGET_S, up to SETUP_MAX, so a short setup is sampled more often.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 2, 10, 0.75
#: Added to every ``serve_rw`` threshold per block: the request-cache key
#: changes, the answers cannot (index values are ratios of counts far below
#: 10^6, so none lies within 10^-9 above a threshold).
EPSILON = Fraction(1, 10**12)


@dataclass
class Phase:
    """What the timed phase measured and what verification found."""

    latencies: list[float] = field(default_factory=list)
    ttfas: list[float] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    wire_bytes: int = 0
    stats: dict[str, float] = field(default_factory=dict)
    dictionary_values: int = 0
    checked: int = 0
    peak_rss_mb: float = 0.0
    load_ms: float = 0.0
    self_tested: bool = False

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


def _thresholds(raw: dict[str, str]):
    from repro import Thresholds

    return Thresholds(**{name: Fraction(value) for name, value in raw.items()})


def answer_line(answer: Any) -> str:
    return f"{answer.rule}|{answer.support}|{answer.confidence}|{answer.cover}"


def parse_line(line: str) -> oracle.Answer:
    rule, sup, cnf, cvr = line.split("|")
    return (oracle.canonical(rule), Fraction(sup), Fraction(cnf), Fraction(cvr))


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _timed_library(phase: Phase, cls: str, call: Callable[[], Any], streamed: bool) -> list:
    """Time one in-process request; returns its answers (or verdict)."""
    phase.attempted += 1
    start = time.perf_counter()
    first = None
    try:
        if streamed:
            answers = []
            for answer in call():
                if first is None:
                    first = time.perf_counter() - start
                answers.append(answer)
            result: Any = answers
        else:
            result = call()
    except Exception:  # a failed request is counted, never fatal
        phase.failed += 1
        phase.problem(f"{cls}: {traceback.format_exc(limit=3)}")
        return None
    latency = time.perf_counter() - start
    phase.latencies.append(latency)
    phase.classes.append(cls)
    if streamed:
        phase.ttfas.append(first if first is not None else latency)
    return result


def _rounds(seconds: float, min_requests: int, per_round: int, min_rounds: int = 1):
    """Round indices until the time is up and enough requests are done."""
    start = time.perf_counter()
    index = 0
    while True:
        yield index
        index += 1
        done = index * per_round
        if (time.perf_counter() - start >= seconds and done >= min_requests
                and index >= min_rounds):
            return


def _timed_setups(build: Callable[[], Any], setups: list[float],
                  close: Callable[[Any], None] = lambda built: None) -> Any:
    """One batch of timed setups; returns what the last one built."""
    batch: list[float] = []
    built = None
    while len(batch) < SETUP_MIN or (sum(batch) < SETUP_BUDGET_S and len(batch) < SETUP_MAX):
        if built is not None:
            close(built)
        built = None
        gc.collect()
        start = time.perf_counter()
        built = build()
        batch.append(time.perf_counter() - start)
    setups.extend(batch)
    return built


def _check(phase: Phase, label: str, got: list[oracle.Answer], expected: list[oracle.Answer],
           thresholds: dict[str, Fraction]) -> None:
    phase.checked += 1
    for problem in oracle.compare(got, expected, thresholds):
        phase.problem(f"{label}: {problem}")


# ----------------------------------------------------------------------
# data_scale
# ----------------------------------------------------------------------
def data_scale(root: Path, plan: dict, seconds: float, min_requests: int,
               tracer: tracing.Tracer | None, setups: list[float]) -> Phase:
    from repro import MetaqueryEngine
    from repro.relational import io

    warm = plan["warmup"]

    def build():
        db = io.load_database(root / "db")
        engine = MetaqueryEngine(db)
        for _answer in engine.stream(warm["metaquery"], _thresholds(warm["thresholds"]),
                                     itype=warm["itype"], algorithm=warm["algorithm"]):
            pass
        return db

    db = _timed_setups(build, setups)

    phase = Phase()
    requests = plan["round"]
    first: dict[str, list[str]] = {}
    digests: dict[str, str] = {}
    phase_start = _begin_timed(phase, tracer)
    for _round in _rounds(seconds, min_requests, len(requests)):
        for req in requests:
            thresholds = _thresholds(req["thresholds"])
            engine = None

            def call(req=req, thresholds=thresholds):
                nonlocal engine
                engine = MetaqueryEngine(db)
                return engine.stream(req["metaquery"], thresholds, itype=req["itype"],
                                     algorithm=req["algorithm"])

            answers = _timed_library(phase, req["class"], call, streamed=True)
            if tracer is not None and engine is not None:
                tracing.merge_stats(phase.stats, engine.stats())
            if answers is None:
                continue
            lines = [answer_line(a) for a in answers]
            if req["id"] not in first:
                first[req["id"]] = lines
                digests[req["id"]] = _digest(lines)
            elif _digest(lines) != digests[req["id"]]:
                phase.problem(f"{req['id']}: answers differ from its first evaluation")
    _end_timed(phase, db, phase_start, tracer)
    _timed_setups(build, setups)

    # Verification: the oracle, and streamed == collected on a fresh engine,
    # once per distinct request.
    state = oracle.State(_csv_rows(root / "db"))
    arities = state.arities
    verified: dict[str, list[str]] = {}
    for req in requests:
        lines = first.get(req["id"])
        if lines is None:
            continue
        key = json.dumps([req["metaquery"], req["itype"], req["algorithm"], req["thresholds"]],
                         sort_keys=True)
        if key in verified:
            if verified[key] != lines:
                phase.problem(f"{req['id']}: answers differ from an identical request's")
            continue
        verified[key] = lines
        expected = state.answers(oracle.parse_template(req["metaquery"], arities), req["itype"])
        got = [parse_line(line) for line in lines]
        _check(phase, req["id"], got, expected, oracle.parse_thresholds(req["thresholds"]))
        _self_test_once(phase, got, expected, oracle.parse_thresholds(req["thresholds"]))
        collected = MetaqueryEngine(db).prepare(
            req["metaquery"], _thresholds(req["thresholds"]), itype=req["itype"],
            algorithm=req["algorithm"]).collect()
        if [answer_line(a) for a in collected] != lines:
            phase.problem(f"{req['id']}: collected answers differ from the stream")
    return phase


def _self_test_once(phase: Phase, got, expected, thresholds) -> None:
    """Run the oracle's self-test on the first correct, non-empty answer set."""
    if phase.self_tested or not got or oracle.compare(got, expected, thresholds):
        return
    phase.self_tested = True
    for name in oracle.self_test(got, expected, thresholds):
        phase.problem(f"oracle self-test: a {name} was not rejected")


# ----------------------------------------------------------------------
# query_scale
# ----------------------------------------------------------------------
def query_scale(root: Path, plan: dict, seconds: float, min_requests: int,
                tracer: tracing.Tracer | None, setups: list[float]) -> Phase:
    from repro import MetaqueryEngine
    from repro.relational import io

    requests = plan["round"]
    decisions = [r["instance"] for r in requests if r["kind"] == "decide"]
    warm = plan["warmup"]

    def build():
        db = io.load_database(root / "db")
        decision_dbs = {d["id"]: io.load_database(root / "decide" / d["id"]) for d in decisions}
        engine = MetaqueryEngine(db)
        engine.prepare(warm["metaquery"], _thresholds(warm["thresholds"]), itype=warm["itype"],
                       algorithm=warm["algorithm"]).collect()
        return db, decision_dbs

    db, decision_dbs = _timed_setups(build, setups)

    phase = Phase()
    outputs: dict[str, list] = {}
    digests: dict[str, str] = {}
    decided: dict[str, int] = {}
    phase_start = _begin_timed(phase, tracer)
    for round_index in _rounds(seconds, min_requests, len(requests), min_rounds=2):
        # One engine per round, persistent across the round's requests, as
        # the schema-driven-discovery example uses one for its templates.
        engine = MetaqueryEngine(db)
        deciders = {name: MetaqueryEngine(d) for name, d in decision_dbs.items()}
        for position, req in enumerate(requests):
            if req["kind"] == "decide":
                inst = req["instance"]
                verdict = _timed_library(
                    phase, req["class"],
                    lambda inst=inst: deciders[inst["id"]].decide(
                        inst["metaquery"], inst["index"], Fraction(inst["k"]), itype=inst["itype"]),
                    streamed=False)
                if verdict is not None:
                    decided[req["id"]] = decided.get(req["id"], 0) + 1
                    outputs.setdefault(req["id"], [verdict])
                    if outputs[req["id"]][0] != verdict:
                        phase.problem(f"{req['id']}: verdict changed between rounds")
                continue
            streamed = (position + round_index) % 2 == 0
            prepared = lambda req=req: engine.prepare(  # noqa: E731
                req["metaquery"], _thresholds(req["thresholds"]), itype=req["itype"],
                algorithm=req["algorithm"])
            call = (lambda p=prepared: p().stream()) if streamed else (lambda p=prepared: p().collect())
            answers = _timed_library(phase, req["class"], call, streamed=streamed)
            if answers is None:
                continue
            lines = [answer_line(a) for a in answers]
            if req["id"] not in outputs:
                outputs[req["id"]] = lines
                digests[req["id"]] = _digest(lines)
            elif _digest(lines) != digests[req["id"]]:
                phase.problem(f"{req['id']}: streamed and collected answers differ across rounds")
        if tracer is not None:
            tracing.merge_stats(phase.stats, engine.stats())
            for decider in deciders.values():
                tracing.merge_stats(phase.stats, decider.stats())
    _end_timed(phase, db, phase_start, tracer)
    _timed_setups(build, setups)

    state = oracle.State(_csv_rows(root / "db"))
    arities = state.arities
    for req in requests:
        got = outputs.get(req["id"])
        if got is None:
            continue
        if req["kind"] == "decide":
            phase.checked += 1
            expected = oracle.decide_source(req["instance"])
            if got[0] == expected:
                continue
            if req["id"] == "fault":
                # The known fault: each evaluation is a failed operation.
                phase.failed += decided[req["id"]]
            else:
                phase.problem(f"{req['id']}: verdict {got[0]}, brute force says {expected}")
            continue
        expected = state.answers(oracle.parse_template(req["metaquery"], arities), req["itype"])
        parsed = [parse_line(line) for line in got]
        thresholds = oracle.parse_thresholds(req["thresholds"])
        _check(phase, req["id"], parsed, expected, thresholds)
        _self_test_once(phase, parsed, expected, thresholds)
    return phase


# ----------------------------------------------------------------------
# serve_rw
# ----------------------------------------------------------------------
#: One block: (request key, endpoint).  The first use of a key in a block
#: is a request-cache miss (the write before the block invalidated the
#: cache, and thresholds are fresh); later uses replay it.  Shares: template
#: misses 15 %, probe miss 5 %, replays of `/mine` 40 % and of
#: `/mine/stream` 40 %, so neither the 50 % nor the 90 % cut point falls on a
#: class boundary; the ten streams (two misses) put the TTFA median inside
#: the replays.
BLOCK = (
    ("A", "/mine/stream"), ("A", "/mine"), ("probe", "/mine"), ("B", "/mine"),
    ("B", "/mine/stream"), ("C", "/mine/stream"), ("C", "/mine"),
    ("A", "/mine/stream"), ("B", "/mine"), ("C", "/mine/stream"), ("A", "/mine"),
    ("B", "/mine/stream"), ("C", "/mine"), ("A", "/mine/stream"), ("B", "/mine"),
    ("C", "/mine/stream"), ("A", "/mine"), ("B", "/mine/stream"), ("C", "/mine"),
    ("A", "/mine/stream"),
)


def _payload(req: dict, shift: Fraction) -> dict:
    return {
        "metaquery": req["metaquery"], "itype": req["itype"], "algorithm": req["algorithm"],
        "thresholds": {name: frac(Fraction(value) + shift)
                       for name, value in req["thresholds"].items()},
    }


def _block_requests(plan: dict, index: int, write: dict) -> dict[str, dict]:
    templates = plan["templates"]
    shift = EPSILON * (index + 1)
    return {
        "probe": {"metaquery": inclusion_probe(write["relation"]), "itype": 0,
                  "algorithm": "naive", "thresholds": {}},
        "A": _payload(templates[write["a"]], shift),
        "B": _payload(templates[write["b"]], shift),
        "C": _payload(templates[write["c"]], shift),
    }


def _wire_answers(path: str, body: bytes) -> list[str]:
    """Each answer as its canonical single-line JSON, from either endpoint."""
    if path.endswith("/stream"):
        return [data for event, data in client.sse_events(body) if event == "answer"]
    return [json.dumps(a, sort_keys=True, separators=(",", ":"))
            for a in json.loads(body)["answers"]]


def _from_wire(line: str) -> oracle.Answer:
    a = json.loads(line)
    return (oracle.canonical(a["rule"]), Fraction(a["support"]), Fraction(a["confidence"]),
            Fraction(a["cover"]))


def serve_rw(root: Path, plan: dict, seconds: float, min_requests: int,
             tracer: tracing.Tracer | None, setups: list[float], spool: Path) -> Phase:
    from repro.relational import io
    from repro.relational.relation import Relation
    from repro.server.inprocess import InProcessServer

    warm = plan["warmup"]

    def build():
        db = io.load_database(root / "db")
        server = InProcessServer({"default": db}, rate=None).start()
        try:
            reply = client.post(server.port, "/mine", _payload(warm, Fraction(0)))
        except BaseException:
            server.close()
            raise
        if reply.status != 200:
            server.close()
            raise RuntimeError(f"warm-up request failed with {reply.status}")
        return db, server

    def close(built):
        built[1].close()

    db, server = _timed_setups(build, setups, close)
    try:
        rows = {rel.name: set(rel.tuples) for rel in db}
        columns = {rel.name: rel.columns for rel in db}
        phase = Phase()
        blocks = plan["blocks"]
        executed = 0
        phase_start = _begin_timed(phase, tracer)
        with spool.open("wb") as out:
            for index in _rounds(seconds, min_requests, len(BLOCK)):
                if index >= len(blocks):
                    raise RuntimeError(f"the run needs more than {len(blocks)} write blocks")
                write = blocks[index]
                target = rows[write["relation"]]
                target.difference_update(map(tuple, write["remove"]))
                target.update(map(tuple, write["add"]))
                db.replace(Relation.from_rows(write["relation"], columns[write["relation"]],
                                              sorted(target)))
                payloads = _block_requests(plan, index, write)
                bodies: list[bytes] = []
                for key, path in BLOCK:
                    phase.attempted += 1
                    miss = not any(k == key for k, _ in BLOCK[:len(bodies)])
                    try:
                        reply = client.post(server.port, path, payloads[key])
                    except OSError:
                        phase.failed += 1
                        phase.problem(f"block {index} {key} {path}: {traceback.format_exc(limit=2)}")
                        bodies.append(b"")
                        continue
                    bodies.append(reply.body)
                    if reply.status != 200:
                        phase.failed += 1
                        phase.problem(f"block {index} {key} {path}: HTTP {reply.status}")
                        continue
                    phase.latencies.append(reply.latency_s)
                    phase.classes.append(
                        "probe" if key == "probe" else f"{'miss' if miss else 'replay'}{path}")
                    phase.wire_bytes += reply.wire_bytes
                    if path.endswith("/stream"):
                        phase.ttfas.append(reply.first_answer_s if reply.first_answer_s is not None
                                           else reply.latency_s)
                out.write(json.dumps([b.decode("utf-8") for b in bodies]).encode("utf-8") + b"\n")
                executed = index + 1
        _end_timed(phase, db, phase_start, tracer)
        if tracer is not None:
            stats = client.get_json(server.port, "/stats")
            tracing.merge_stats(phase.stats, stats["tenants"]["default"]["engine"])
    finally:
        server.close()
    close(_timed_setups(build, setups, close))

    # Verification against the oracle on the state each block saw.
    state = oracle.State(_csv_rows(root / "db"))
    with spool.open("rb") as spooled:
        for index, line in zip(range(executed), spooled):
            bodies = [b.encode("utf-8") for b in json.loads(line)]
            write = blocks[index]
            payloads = _block_requests(plan, index, write)
            arities = state.arities
            probe_template = oracle.parse_template(payloads["probe"]["metaquery"], arities)
            before = state.answers(probe_template, 0)
            state.write(write["relation"], write["remove"], write["add"])
            after = state.answers(probe_template, 0)
            if sorted(before) == sorted(after):
                phase.problem(f"block {index}: the write does not change the probe's answers")
            first_answers: dict[str, list[str]] = {}
            first_body: dict[tuple[str, str], bytes] = {}
            for (key, path), body in zip(BLOCK, bodies):
                if not body:
                    continue
                answers = _wire_answers(path, body)
                if key not in first_answers:
                    first_answers[key] = answers
                    req = payloads[key]
                    expected = after if key == "probe" else state.answers(
                        oracle.parse_template(req["metaquery"], arities), req["itype"])
                    thresholds = oracle.parse_thresholds(req["thresholds"])
                    got = [_from_wire(a) for a in answers]
                    _check(phase, f"block {index} {key}", got, expected, thresholds)
                    _self_test_once(phase, got, expected, thresholds)
                elif answers != first_answers[key]:
                    phase.problem(f"block {index} {key}: {path} answers differ from the first reply")
                if (key, path) in first_body:
                    if body != first_body[(key, path)]:
                        phase.problem(f"block {index} {key}: replayed {path} bytes differ")
                else:
                    first_body[(key, path)] = body
    spool.unlink()
    return phase


def _csv_rows(directory: Path) -> dict[str, list[tuple]]:
    """The relations of a CSV directory as plain tuples, read without the program."""
    out = {}
    for path in sorted(directory.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        out[path.stem] = [tuple(line.split(",")) for line in lines]
    return out


# ----------------------------------------------------------------------
def _end_timed(phase: Phase, db: Any, start: float, tracer: tracing.Tracer | None) -> None:
    """Close the timed phase: wall time, dictionary size, peak memory so far.

    A traced run stops tracing here, so verification is not counted.
    """
    phase.wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    phase.dictionary_values = len(db.dictionary)
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _begin_timed(phase: Phase, tracer: tracing.Tracer | None) -> float:
    """Open the timed phase; a traced run keeps only setup's load time."""
    if tracer is not None:
        loads = tracer.calls.get("relational.load", 0) or 1
        phase.load_ms = tracer.total_ns.get("relational.load", 0) / 1e6 / loads
        tracer.reset()
    return time.perf_counter()


def summarize(phase: Phase, setups: list[float]) -> dict[str, Any]:
    lat, ttfa = phase.latencies, phase.ttfas
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) >= 2 else [0.0] * 9
    classes: dict[str, list[float]] = {}
    for cls, value in zip(phase.classes, lat):
        classes.setdefault(cls, []).append(value)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": deciles[4] * 1e3,
            "latency_p90_ms": deciles[8] * 1e3,
            "ttfa_p50_ms": statistics.median(ttfa) * 1e3 if ttfa else 0.0,
            "requests_per_s": len(lat) / phase.wall_s if phase.wall_s else 0.0,
            "peak_rss_mb": phase.peak_rss_mb,
        },
        "samples": {"latency": len(lat), "ttfa": len(ttfa), "setup": len(setups)},
        "setups_s": setups,
        "mean_latency_s": statistics.fmean(lat) if lat else 0.0,
        "total_latency_s": sum(lat),
        "wall_s": phase.wall_s,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "checked": phase.checked,
        "correct": not phase.problems and phase.checked > 0 and phase.self_tested,
        "problems": phase.problems,
        "classes": {cls: {"share": len(v) / len(lat), "median_ms": statistics.median(v) * 1e3}
                    for cls, v in sorted(classes.items())},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("data_scale", "query_scale", "serve_rw"))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--min-requests", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    # Import the program before any setup is timed: every setup repetition
    # then measures the same work.
    import repro.core.engine  # noqa: F401
    import repro.server.inprocess  # noqa: F401

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    plan = json.loads((args.inputs / "plan.json").read_text(encoding="utf-8"))
    setups: list[float] = []
    runner = {"data_scale": data_scale, "query_scale": query_scale, "serve_rw": serve_rw}
    extra = {"spool": args.out.with_suffix(".spool")} if args.workload == "serve_rw" else {}

    phase = runner[args.workload](args.inputs, plan, args.seconds, args.min_requests,
                                  tracer, setups, **extra)
    result = summarize(phase, setups)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer, phase.stats, len(phase.latencies), result["total_latency_s"],
            phase.wire_bytes, phase.load_ms, phase.dictionary_values)
        tracer.uninstall()
    result["environment"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

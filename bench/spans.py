"""Spans at the layer boundaries of the package, recorded from outside it.

``instrument`` wraps the public functions that one ``arrmono`` module
imports from another (by replacing the name in the importing module), plus a
few methods, so spans nest along layer boundaries.  Each span has a name, a
start, an end, a parent and a job id, is timed with ``perf_counter_ns``, and
finds its parent through a ``contextvars`` variable.  Spans stay in memory
until ``write_jsonl``.  Counts are read off arguments and results at the
same boundaries.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar("bench_span", default=None)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    job: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job = ""

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        sid = len(self.spans)
        span = Span(sid, name, 0, 0, _PARENT.get(), self.job)
        self.spans.append(span)
        token = _PARENT.set(sid)
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            _PARENT.reset(token)

    def self_seconds(self, since: int = 0) -> dict[str, float]:
        """Per span name, over the spans recorded from index ``since`` on:
        total duration minus the time covered by child spans.  Children of
        one span run one after another, so their coverage is the sum of
        their durations."""
        child: Counter = Counter()
        for s in self.spans[since:]:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans[since:]:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - child[s.id]) / 1e9
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), separators=(",", ":")) + "\n")


# -- counts read at the boundary ----------------------------------------------------
#
# A hook sees the call's arguments and its result, or None when the call
# raised (the gauge solve signals "not conjugate" by raising NoSolution).


def _poly_terms(c) -> int:
    terms = getattr(c, "terms", None)
    return len(terms) if terms is not None else int(c != 0)


def _coeff_bits(c) -> int:
    values = c.terms.values() if hasattr(c, "terms") else [c]
    return max((max(Fraction(v).numerator.bit_length(), Fraction(v).denominator.bit_length())
                for v in values), default=0)


def _count_char_poly(counts, args, result):
    if result is None:
        return
    counts["linalg.char_poly_terms"] += sum(_poly_terms(c) for c in result.coeffs)
    counts["linalg.char_poly_bits"] = max(counts["linalg.char_poly_bits"],
                                          max(_coeff_bits(c) for c in result.coeffs))


def _count_solve(counts, args, result):
    a = args[0]
    if getattr(a.ring, "tag", None) == "rational":
        counts["connection.gauge_solves"] += 1
        counts["linalg.gauge_rows"] += a.rows
        counts["linalg.gauge_cols"] += a.cols
        counts["linalg.gauge_nnz"] += sum(1 for row in a.entries for v in row if v != 0)


def _count_exp(counts, args, result):
    if result is None:
        return
    counts["connection.exp_fail"] += int(not result.passed)
    counts["connection.entrywise_skips"] += int(result.entrywise_degree2)


def _count_eigen(counts, args, result):
    if result is None:
        return
    counts["connection.eigen_factors"] += len(result.factors)


def _count_cert_terms(counts, args, result):
    if result is None:
        return
    counts["fox.cert_terms"] += sum(len(t) for t in result.terms)


def _count_image_letters(counts, args, result):
    if result is None:
        return
    counts["fox.image_letters"] += sum(len(w) for w in result.images)


def _count_dependencies(counts, args, result):
    if result is None:
        return
    counts["arrangement.circuits"] += len(result.circuits)


def _count_nbc(counts, args, result):
    if result is None:
        return
    counts["arrangement.nbc_sets"] += sum(result.betti())


def _count_aomoto(counts, args, result):
    if result is None:
        return
    counts["oscomplex.mu_nonzeros"] += sum(1 for m in result.boundaries
                                           for row in m.entries for e in row if not e.is_zero())


def _count_rank(counts, args, result):
    counts["linalg.rank_calls"] += 1


def _solve_name(args) -> str:
    rational = getattr(args[0].ring, "tag", None) == "rational"
    return "linalg.solve_right_q" if rational else "linalg.solve_right_poly"


# (importing module, attribute, span name or a function of the arguments
# that returns it, count hook).  A name the importing module does not have
# is skipped, so the table follows the package as modules move.
FUNCTIONS = [
    ("arrmono.cli", "load_arrangement", "cli.load", None),
    ("arrmono.cli", "load_presentation", "cli.load", None),
    ("arrmono.cli", "load_endomorphism", "cli.load", _count_image_letters),
    ("arrmono.cli", "load_certificate", "cli.load", _count_cert_terms),
    ("arrmono.cli", "load_projection", "cli.load", None),
    ("arrmono.cli", "compute_dependencies", "arrangement.dependencies", _count_dependencies),
    ("arrmono.oscomplex", "compute_dependencies", "arrangement.dependencies", _count_dependencies),
    ("arrmono.cli", "nbc_basis", "arrangement.nbc", _count_nbc),
    ("arrmono.oscomplex", "nbc_basis", "arrangement.nbc", _count_nbc),
    ("arrmono.arrangement", "rational_rank", "linalg.rank", _count_rank),
    ("arrmono.cli", "aomoto_boundary", "oscomplex.aomoto", _count_aomoto),
    ("arrmono.cli", "universal_complex", "fox.complex", None),
    ("arrmono.cli", "phi1", "fox.phi", None),
    ("arrmono.cli", "phi2_from_certificate", "fox.phi", None),
    ("arrmono.cli", "verify_exp_relation", "connection.exp_relation", _count_exp),
    ("arrmono.cli", "eigen_monomials", "connection.eigen_monomials", _count_eigen),
    ("arrmono.cli", "eigen_linear_forms", "connection.eigen_linear_forms", _count_eigen),
    ("arrmono.cli", "verify_chain_map", "connection.chain_map", None),
    ("arrmono.cli", "formal_connection", "connection.formal", None),
    ("arrmono.cli", "verify_projection", "connection.projection", None),
    ("arrmono.cli", "induced_map", "connection.induced", None),
    ("arrmono.cli", "classify_weights", "connection.classify", None),
    ("arrmono.cli", "evaluate_matrix", "linalg.eval", None),
    ("arrmono.cli", "linearize_matrix", "linalg.eval", None),
    ("arrmono.connection", "solve_right", _solve_name, _count_solve),
    ("arrmono.connection", "char_poly", "linalg.char_poly", _count_char_poly),
    ("arrmono.connection", "series_matrix", "linalg.series", None),
    ("arrmono.connection", "mat_exp_truncated", "linalg.series", None),
    ("arrmono.connection", "generic_rank", "linalg.rank", _count_rank),
]

# (defining module, class, method, span name).  Methods are wrapped on the
# class, so every caller is covered.
METHODS = [
    ("arrmono.fox", "RelatorCertificate", "validate", "fox.validate"),
    ("arrmono.linalg", "RingComplex", "betti", "linalg.rank"),
]


def _wrap(tracer: Tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(args) if callable(name) else name
        result = None
        try:
            result = tracer.run(span, fn, *args, **kwargs)
            return result
        finally:
            if hook is not None:
                hook(tracer.counts, args, result)
    return wrapper


def instrument(tracer: Tracer):
    """Wrap every boundary in the tables; return a function that undoes it."""
    undo = []
    for module, attr, name, hook in FUNCTIONS:
        mod = sys.modules[module]
        if hasattr(mod, attr):
            orig = getattr(mod, attr)
            setattr(mod, attr, _wrap(tracer, orig, name, hook))
            undo.append((mod, attr, orig))
    for module, cls_name, meth, name in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, orig, name, None))
        undo.append((cls, meth, orig))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return restore


# Per-layer metric names and the span each one sums.  cli.self is the self
# time of the job span (argparse, report formatting and everything else in
# cli that no child span covers).
SPAN_METRICS = {
    "cli.self_s": "cli.job",
    "cli.load_s": "cli.load",
    "fox.validate_s": "fox.validate",
    "fox.phi_s": "fox.phi",
    "fox.complex_s": "fox.complex",
    "arrangement.dependencies_s": "arrangement.dependencies",
    "arrangement.nbc_s": "arrangement.nbc",
    "oscomplex.aomoto_s": "oscomplex.aomoto",
    "connection.exp_relation_s": "connection.exp_relation",
    "connection.eigen_monomials_s": "connection.eigen_monomials",
    "connection.eigen_linear_forms_s": "connection.eigen_linear_forms",
    "connection.chain_map_s": "connection.chain_map",
    "connection.formal_s": "connection.formal",
    "connection.projection_s": "connection.projection",
    "connection.induced_s": "connection.induced",
    "connection.classify_s": "connection.classify",
    "linalg.solve_right_q_s": "linalg.solve_right_q",
    "linalg.solve_right_poly_s": "linalg.solve_right_poly",
    "linalg.char_poly_s": "linalg.char_poly",
    "linalg.series_s": "linalg.series",
    "linalg.rank_s": "linalg.rank",
    "linalg.eval_s": "linalg.eval",
}

COUNT_METRICS = (
    "fox.cert_terms", "fox.image_letters",
    "arrangement.circuits", "arrangement.nbc_sets",
    "oscomplex.mu_nonzeros",
    "connection.gauge_solves", "connection.entrywise_skips", "connection.exp_fail",
    "connection.eigen_factors",
    "linalg.gauge_rows", "linalg.gauge_cols", "linalg.gauge_nnz",
    "linalg.char_poly_terms", "linalg.char_poly_bits", "linalg.rank_calls",
)

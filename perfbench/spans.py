"""Spans recorded from outside the program.

For a traced run the benchmark replaces each public function of a layer with
a timing wrapper, at every ``symsos`` module attribute (and class attribute)
that holds it, so that calls between modules go through the wrapper too.  A
span is [name, start, end, parent index, op id, phase, counters]; spans stay
in memory and are written out when the run ends.  Nothing in ``src`` changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, attribute path, span name); the span name is "<layer>.<function>"
BOUNDARIES = [
    ("symsos.cli", "main", "cli.main"),
    ("symsos.certificates", "sos_lower_bound", "certificates.sos_lower_bound"),
    ("symsos.certificates", "bundle_for", "certificates.bundle_for"),
    ("symsos.certificates", "algorithm_one", "certificates.algorithm_one"),
    ("symsos.certificates", "round_certificate", "certificates.round_certificate"),
    ("symsos.certificates", "verify_certificate", "certificates.verify_certificate"),
    ("symsos.invariants", "rewrite_in_invariants", "invariants.rewrite_in_invariants"),
    ("symsos.invariants", "expand_invariants", "invariants.expand_invariants"),
    ("symsos.equivariants", "pi_matrix", "equivariants.pi_matrix"),
    ("symsos.equivariants", "equivariant_catalog", "equivariants.equivariant_catalog"),
    ("symsos.sdp", "assemble_gram", "sdp.assemble_gram"),
    ("symsos.sdp", "assemble_invariant_sos", "sdp.assemble_invariant_sos"),
    ("symsos.sdp", "restrict_invariant", "sdp.restrict_invariant"),
    ("symsos.isotypic", "fixed_point_project", "isotypic.fixed_point_project"),
    ("symsos.isotypic", "symmetry_adapted_basis", "isotypic.symmetry_adapted_basis"),
    ("symsos.solver", "solve", "solver.solve"),
    ("symsos.solver", "polish_solution", "solver.polish_solution"),
    ("symsos.linalg", "RowBasis.add", "linalg.RowBasis.add"),
    ("symsos.linalg", "ldl_psd", "linalg.ldl_psd"),
    ("symsos.groups", "catalog", "groups.catalog"),
    ("symsos.molien", "dimension_table", "molien.dimension_table"),
    ("symsos.fileio", "certificate_to_text", "fileio.certificate_to_text"),
    ("symsos.fileio", "certificate_from_text", "fileio.certificate_from_text"),
]


def _solve_counters(args, kwargs, result):
    sdp = args[0]
    return {"status": result.status, "iterations": result.iterations,
            "entries": sdp.entry_count(), "constraints": len(sdp.constraints)}


def _polish_counters(args, kwargs, result):
    return {"accepted": result is not args[1]}


COUNTERS = {
    "solver.solve": _solve_counters,
    "solver.polish_solution": _polish_counters,
    "fileio.certificate_to_text": lambda a, k, r: {"bytes": len(r)},
    "fileio.certificate_from_text": lambda a, k, r: {"bytes": len(a[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.phase = "op"
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counters = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op,
                   self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[6] = counters(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every boundary at each place the pipeline can reach it."""
        for modname, path, name in BOUNDARIES:
            mod = importlib.import_module(modname)
            owner, attr = mod, path
            if "." in path:
                cls, attr = path.split(".")
                owner = getattr(mod, cls)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            targets = [(owner, attr)] if owner is not mod else [
                (m, a) for mname, m in list(sys.modules.items())
                if mname.startswith("symsos") and m is not None
                for a, v in vars(m).items() if v is original]
            for obj, a in targets:
                self._undo.append((obj, a, original))
                setattr(obj, a, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def ancestors(self, i: int) -> list[str]:
        names = []
        p = self.spans[i][3]
        while p is not None:
            names.append(self.spans[p][0])
            p = self.spans[p][3]
        return names

    def dump(self) -> list[dict]:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "phase": s[5], "counters": s[6]} for s in self.spans]


def _short(name: str) -> str:
    return name.split(".")[-1]


def layer_metrics(tracer: Tracer, names: list[str],
                  factors: dict[int, float] | None = None) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Times are self times summed over the run and divided by the ops
    attempted, unless the name says otherwise; ``*_calls`` are calls per op.
    ``names`` gives the op name of each op id, and ``factors`` the factor
    that host-normalizes the op's times.  Unreduced cross-check solves run
    once per op of the list, so they are compared op by op with the solves
    the op itself makes.
    """
    spans = tracer.spans
    ops = max(len(names), 1)
    factors = factors or {}
    scale = [factors.get(s[4], 1.0) for s in spans]
    self_t = [t * f for t, f in zip(tracer.self_times(), scale)]
    per_op: dict[str, float] = {}
    calls: dict[str, int] = {}
    split: dict[tuple[str, str], float] = {}
    split_calls: dict[tuple[str, str], int] = {}

    def add(d, key, v):
        d[key] = d.get(key, 0) + v

    def parent_of(i, choices):
        for a in tracer.ancestors(i):
            if _short(a) in choices:
                return _short(a)
        return "other"

    solve = {"n": 0, "iters": 0, "self": 0.0, "optimal": 0, "entries": 0,
             "constraints": 0}
    own_solve: dict[str, list[float]] = {}   # op name -> solve seconds
    full_solve: dict[str, list[float]] = {}  # op name -> cross-check seconds
    polish = {"n": 0, "accepted": 0}
    cert_bytes: list[int] = []
    rounds = 0
    round_ldl = 0
    for i, (name, t0, t1, parent, op, phase, ctr) in enumerate(spans):
        if phase != "op":
            if name == "solver.solve":
                full_solve.setdefault(names[op], []).append((t1 - t0) * scale[i])
            continue
        add(per_op, name, self_t[i])
        add(calls, name, 1)
        if name == "solver.solve":
            solve["n"] += 1
            solve["iters"] += ctr["iterations"]
            solve["self"] += self_t[i]
            solve["optimal"] += ctr["status"] == "optimal"
            solve["entries"] += ctr["entries"]
            solve["constraints"] += ctr["constraints"]
            own_solve.setdefault(names[op], []).append((t1 - t0) * scale[i])
        elif name == "solver.polish_solution":
            polish["n"] += 1
            polish["accepted"] += ctr["accepted"]
        elif name.startswith("fileio."):
            cert_bytes.append(ctr["bytes"])
        elif name == "certificates.round_certificate":
            rounds += 1
        elif name == "invariants.rewrite_in_invariants":
            key = parent_of(i, ("bundle_for", "sos_lower_bound"))
            add(split, ("invariants.rewrite_s", key), self_t[i])
        elif name == "invariants.expand_invariants":
            if "certificates.verify_certificate" in tracer.ancestors(i):
                add(split, ("invariants.expand_s", "verify"), self_t[i])
                add(split_calls, ("invariants.expand_calls", "verify"), 1)
        elif name == "isotypic.fixed_point_project":
            if "sdp.restrict_invariant" in tracer.ancestors(i):
                add(split, ("sdp.reynolds_s", ""), self_t[i])
                add(split_calls, ("sdp.reynolds_calls", ""), 1)
        elif name == "linalg.RowBasis.add":
            key = parent_of(i, ("solve", "round_certificate",
                                "restrict_invariant", "bundle_for"))
            add(split, ("linalg.elim_s", key), self_t[i])
        elif name == "linalg.ldl_psd":
            key = parent_of(i, ("verify_certificate", "round_certificate"))
            add(split, ("linalg.ldl_s", key), self_t[i])
            add(split_calls, ("linalg.ldl_calls", key), 1)
            if parent is not None and spans[parent][0] == \
                    "certificates.round_certificate":
                round_ldl += 1

    both = [n for n in full_solve if n in own_solve]
    full = sum(statistics.mean(full_solve[n]) for n in both)
    reduced = sum(statistics.mean(own_solve[n]) for n in both)

    def t(name):
        return per_op.get(name, 0.0) / ops

    def c(name):
        return calls.get(name, 0) / ops

    def sp(metric, key):
        return split.get((metric, key), 0.0) / ops

    def spc(metric, key):
        return split_calls.get((metric, key), 0) / ops

    out = {
        "certificates.bundle_s": t("certificates.bundle_for") +
        t("certificates.algorithm_one") + t("equivariants.equivariant_catalog"),
        "certificates.bundle_calls": c("certificates.bundle_for"),
        "certificates.round_s": t("certificates.round_certificate"),
        "certificates.round_candidates": round_ldl / rounds if rounds else 0.0,
        "certificates.verify_s": t("certificates.verify_certificate"),
        "certificates.verify_calls": c("certificates.verify_certificate"),
        "invariants.rewrite_s.bundle_for": sp("invariants.rewrite_s", "bundle_for"),
        "invariants.rewrite_s.sos_lower_bound":
            sp("invariants.rewrite_s", "sos_lower_bound"),
        "invariants.expand_calls": spc("invariants.expand_calls", "verify"),
        "invariants.expand_s": sp("invariants.expand_s", "verify"),
        "equivariants.pi_matrix_s": t("equivariants.pi_matrix"),
        "sdp.assemble_s": t("sdp.assemble_gram") + t("sdp.assemble_invariant_sos"),
        "sdp.restrict_s": t("sdp.restrict_invariant"),
        "sdp.reynolds_calls": spc("sdp.reynolds_calls", ""),
        "sdp.reynolds_s": sp("sdp.reynolds_s", ""),
        "sdp.program_entries": solve["entries"] / solve["n"] if solve["n"] else 0.0,
        "sdp.constraints": solve["constraints"] / solve["n"] if solve["n"] else 0.0,
        "solver.solve_s": t("solver.solve"),
        "solver.iterations": solve["iters"] / solve["n"] if solve["n"] else 0.0,
        "solver.s_per_iter": solve["self"] / solve["iters"] if solve["iters"] else 0.0,
        "solver.optimal_frac": solve["optimal"] / solve["n"] if solve["n"] else 0.0,
        "solver.polish_s": t("solver.polish_solution"),
        "solver.polish_accept_frac":
            polish["accepted"] / polish["n"] if polish["n"] else 0.0,
        "solver.full_solve_s": full / len(set(names)) if names else 0.0,
        "solver.reduced_over_full": reduced / full if full else 0.0,
        "isotypic.adapted_basis_s": t("isotypic.symmetry_adapted_basis"),
        "groups.catalog_s": t("groups.catalog"),
        "molien.table_s": t("molien.dimension_table"),
        "fileio.write_s": t("fileio.certificate_to_text"),
        "fileio.read_s": t("fileio.certificate_from_text"),
        "fileio.cert_bytes": sum(cert_bytes) / len(cert_bytes) if cert_bytes else 0.0,
        "cli.self_s": t("cli.main"),
    }
    for key in ("solve", "round_certificate", "restrict_invariant", "bundle_for",
                "other"):
        out[f"linalg.elim_s.{key}"] = sp("linalg.elim_s", key)
    for key in ("round_certificate", "verify_certificate", "other"):
        out[f"linalg.ldl_s.{key}"] = sp("linalg.ldl_s", key)
        out[f"linalg.ldl_calls.{key}"] = spc("linalg.ldl_calls", key)
    return out

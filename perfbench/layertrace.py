"""Layer tracing from outside the package.

A probe replaces a package function or method with a wrapper under every
name the package holds it by: ``atlas`` imports ``complete`` by name, so
patching ``ncgrass.rewrite.complete`` alone would miss every call made from
``atlas``. Span probes record the duration and self time of each call (self
time is the duration minus the time covered by nested spans); count probes
only count calls, for functions called millions of times per pass. Spans are
aggregated in memory as they close, per probe name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "ncgrass"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0  # summed over calls not nested in a span of the same name
    self_s: float = 0.0
    max_s: float = 0.0


@dataclass(frozen=True)
class Probe:
    """A span or count probe on one or more ``module:qualname`` targets.

    ``outside`` names another span: calls made while it is open are recorded
    under ``<name>@<outside>`` instead of ``name``."""

    name: str
    targets: tuple
    kind: str = "span"  # "span" or "count"
    outside: str | None = None


PROBES = (
    Probe("rewrite.complete", ("ncgrass.rewrite:complete",)),
    Probe(
        "rewrite.normal_form",
        ("ncgrass.rewrite:RewriteSystem.normal_form",),
        outside="rewrite.complete",
    ),
    Probe(
        "atlas.build",
        (
            "ncgrass.atlas:chart_presentation",
            "ncgrass.atlas:pair_overlap",
            "ncgrass.atlas:overlap_chain",
            "ncgrass.atlas:build_presheaf",
        ),
    ),
    Probe("atlas.completed", ("ncgrass.atlas:AlgebraPresentation.completed",)),
    # each suite together with the check family it loops over, so that a
    # family called directly (as by the mutation sweep) is timed as well
    Probe(
        "verify.suite.proposition",
        ("ncgrass.verify:suite_proposition", "ncgrass.verify:verify_adjacent_substitution"),
    ),
    Probe(
        "verify.suite.lemma",
        ("ncgrass.verify:verify_disjoint_lemma", "ncgrass.verify:_lemma_direction"),
    ),
    Probe(
        "verify.suite.cocycle",
        ("ncgrass.verify:suite_cocycle", "ncgrass.verify:verify_cocycle"),
    ),
    Probe(
        "verify.suite.module_gluing",
        ("ncgrass.verify:suite_module_gluing", "ncgrass.verify:verify_module_gluing"),
    ),
    Probe("verify.suite.abelianization", ("ncgrass.verify:verify_abelianizations",)),
    Probe("verify.suite.functoriality", ("ncgrass.verify:verify_functoriality",)),
    Probe("verify.suite.points", ("ncgrass.verify:verify_points",)),
    Probe("verify.certify", ("ncgrass.verify:_certified_point",)),
    Probe("poly.hom_apply", ("ncgrass.poly:Hom.apply",)),
    Probe("points.glue_count", ("ncgrass.points:glue_count",)),
    Probe("points.roundtrip", ("ncgrass.points:roundtrip_failures",)),
    Probe("points.oracle", ("ncgrass.points:subspace_oracle",)),
    Probe("points.transport", ("ncgrass.points:transport",), kind="count"),
    Probe("cli.main", ("ncgrass.cli:main",)),
    Probe(
        "fields.qq_ops",
        tuple(f"ncgrass.fields:Rationals.{op}" for op in ("add", "sub", "mul", "inv")),
        kind="count",
    ),
    Probe(
        "fields.gf_ops",
        tuple(f"ncgrass.fields:PrimeField.{op}" for op in ("add", "sub", "mul", "inv")),
        kind="count",
    ),
)


def _resolve(target: str):
    """The function object behind ``module:qualname``, or None if absent."""
    mod_name, qualname = target.split(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj


def _namespaces():
    """Every package module, and every class defined in one."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod_name:
                yield value


def bindings(func) -> list:
    """Every (namespace, attribute) pair of the package bound to ``func``."""
    return [
        (ns, attr)
        for ns in _namespaces()
        for attr, value in list(vars(ns).items())
        if value is func
    ]


class Tracer:
    """Patches the probes while active (``with tracer:``) and restores every
    binding on exit. Statistics accumulate across activations."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [start, time covered by child spans]
        self._open: Counter = Counter()
        self._patched: list[tuple] = []

    # statistics

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name) or SpanStats()

    # patching

    def __enter__(self):
        seen = set()
        for probe in self.probes:
            for target in probe.targets:
                func = _resolve(target)
                if func is None or not callable(func):
                    self.missing.add(target)
                    continue
                if id(func) in seen:
                    continue
                seen.add(id(func))
                wrapper = self._wrap(probe, func)
                for ns, attr in bindings(func):
                    self._patched.append((ns, attr, func))
                    setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for ns, attr, func in reversed(self._patched):
            setattr(ns, attr, func)
        self._patched.clear()
        return False

    def _wrap(self, probe: Probe, func):
        if probe.kind == "count":
            counts, name = self.counts, probe.name

            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return counted

        stack, open_, spans = self._stack, self._open, self.spans
        clock = time.perf_counter
        on_call = _ON_CALL.get(probe.name)
        on_return = _ON_RETURN.get(probe.name)

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            name = probe.name
            if probe.outside is not None and open_[probe.outside]:
                name = f"{probe.name}@{probe.outside}"
            if on_call is not None:
                on_call(self)
            nested_same = open_[name] > 0
            open_[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][1] += dur
                st = spans.get(name)
                if st is None:
                    st = spans[name] = SpanStats()
                st.calls += 1
                st.self_s += dur - frame[1]
                if not nested_same:
                    st.total_s += dur
                if dur > st.max_s:
                    st.max_s = dur
            if on_return is not None:
                on_return(self, result)
            return result

        return spanned


def _count_cache_miss(tracer: Tracer) -> None:
    # a completion started inside AlgebraPresentation.completed is a cache miss
    if tracer._open["atlas.completed"]:
        tracer.counts["atlas.completed.computed"] += 1


def _count_rules(tracer: Tracer, system) -> None:
    tracer.counts["rewrite.complete.rules_out"] += len(system.rules)


_ON_CALL = {"rewrite.complete": _count_cache_miss}
_ON_RETURN = {"rewrite.complete": _count_rules}

"""Outside-in layer tracing for the mnseries benchmark.

The tracer wraps public entry points of the engine's modules from the
benchmark's side; nothing in ``src/`` knows about it.  Each wrapped call
records a span ``[name, start, end, parent, instance]`` in memory, and a few
wrappers also add work counts (terms, pair products) at the same boundary.
``FieldSpec.phi`` runs hundreds of thousands of times per pass, so it gets a
counter only, never a span.

Functions are bound by name in several modules (``multiply`` lives in
``series`` and is imported into ``parser``, ``residues`` and ``identities``),
so ``install`` replaces every binding of the original object in every loaded
``mnseries`` module; a call through a binding left unpatched would be missed.
Methods are patched once, on their class.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import mnseries.cli
import mnseries.identities
import mnseries.ordering
import mnseries.parser
import mnseries.residues
import mnseries.series


def _terms_in(args, kwargs, result):
    return len(args[0].terms)


def _terms_out(args, kwargs, result):
    return len(result.terms)


def _pairs(args, kwargs, result):
    return len(args[0].terms) * len(args[1].terms)


def _init_terms(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["terms"])


_Series = mnseries.series.Series

# (span name, owner, attribute, {count suffix: measure(args, kwargs, result)})
# An owner that is a module means "this function, wherever it is bound".
SPANS = (
    ("series.init", _Series, "__init__", {"terms": _init_terms}),
    ("series.multiply", mnseries.series, "multiply",
     {"pairs": _pairs, "terms_out": _terms_out}),
    ("series.invert", _Series, "invert",
     {"terms_in": _terms_in, "terms_out": _terms_out}),
    ("series.compose", _Series, "compose_stream", {"terms_out": _terms_out}),
    # every CT/Res route ends in one of these two
    ("series.extract", _Series, "_project", {}),
    ("series.extract", _Series, "coefficient", {}),
    ("parser.parse", mnseries.parser, "parse", {}),
    ("parser.expand", mnseries.parser, "expand", {}),
    ("residues.jacobian", mnseries.residues, "jacobian", {}),
    ("residues.log_jacobian", mnseries.residues, "log_jacobian", {}),
    ("residues.change_of_variables", mnseries.residues, "change_of_variables", {}),
    ("residues.residue_verify", mnseries.residues, "residue_verify", {}),
    ("residues.lagrange_inverse", mnseries.residues, "lagrange_inverse", {}),
    ("residues.lagrange_coefficient", mnseries.residues, "lagrange_coefficient", {}),
    ("identities.dyson_product", mnseries.identities, "dyson_product", {}),
    ("identities.wilson_v", mnseries.identities, "wilson_v", {}),
    ("cli.main", mnseries.cli, "main", {}),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in SPANS))
PHI_CALLS = "ordering.phi.calls"


def _engine_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "mnseries" or name.startswith("mnseries."))]


class Tracer:
    """Span and counter store; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.instance = -1
        self._stack = []
        self._restore = []

    def _wrap(self, name, original, measures):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        keyed = [(f"{name}.{suffix}", measure) for suffix, measure in measures.items()]

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, measure in keyed:
                counts[key] += measure(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, owner, attribute, measures in SPANS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, measures)
            targets = [owner] if isinstance(owner, type) else _engine_modules()
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))

        counts = self.counts
        phi = mnseries.ordering.FieldSpec.phi

        def counted_phi(spec, exponent):
            counts[PHI_CALLS] += 1
            return phi(spec, exponent)

        mnseries.ordering.FieldSpec.phi = counted_phi
        self._restore.append((mnseries.ordering.FieldSpec, "phi", phi))

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """Per-name call counts and self seconds of one pass's spans.

    A span's self time is its duration minus the time its direct children
    cover.  Spans nest strictly (one thread, stack discipline), so children
    are disjoint and the covered time is the sum of their durations.
    ``parent`` indices refer to positions in the same list.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls = Counter()
    seconds = Counter()
    for (name, start, end, _, _), child in zip(spans, covered):
        calls[name] += 1
        seconds[name] += (end - start) - child
    return calls, seconds

"""Per-layer spans recorded from outside the solvency package.

The layers are the package's modules.  ``Tracer.install`` wraps the
public functions named in ``LAYERS`` and swaps every reference to them
it finds in the solvency modules, including names bound by
``from .dataset import load_csv`` and function references frozen
inside module-level tuples and dicts such as ``cli.PIPELINE_STAGES``
and ``cli.COMMANDS``.  Patching only the defining module's attribute
would silently miss those call sites, so ``install`` then asks the
garbage collector who still holds an unwrapped original and returns
what it finds.
"""

from __future__ import annotations

import gc
import sys
import time
import types

#: module -> {public function: metric prefix}.  Functions that share a
#: prefix add their time into one metric.
LAYERS = {
    "solvency.dataset": {
        "load_csv": "dataset.load_csv",
        "apply_codebook": "dataset.apply_codebook",
        "clean": "dataset.clean",
        "write_csv": "dataset.write_csv",
    },
    "solvency.screening": {
        "fit_logistic": "screening.fit_logistic",
        "pearson_matrix": "screening.pearson_matrix",
        "wald_table": "screening.wald_screen",
        "screen": "screening.wald_screen",
    },
    "solvency.cart": {
        "grow": "cart.grow",
        "serialize": "cart.export",
        "export_dot": "cart.export",
        "export_text": "cart.export",
        "deserialize": "cart.deserialize",
        "predict_dataset": "cart.predict_dataset",
    },
    "solvency.evaluation": {
        "roc": "evaluation.roc",
        "confusion": "evaluation.report",
        "error_rates": "evaluation.report",
        "metrics": "evaluation.report",
        "report_json": "evaluation.report",
        "report_table": "evaluation.report",
        "roc_dump": "evaluation.report",
    },
    "solvency.cli": {
        "stage_encode": "cli.encode",
        "stage_screen": "cli.screen",
        "stage_train": "cli.train",
        "stage_eval": "cli.eval",
        "stage_predict": "cli.predict",
    },
}

#: Stages whose self time (span minus the layer spans inside) is kept.
STAGES = ("encode", "screen", "train", "eval", "predict")


def _load_csv_facts(data, counts):
    counts["dataset.load_csv_calls"] += 1
    if counts["dataset.load_csv_calls"] == 1:
        counts["rows_in"] = data.n


def _clean_facts(result, counts):
    counts["dataset.clean_dropped_rows"] += len(result[1])


def _fit_facts(fit, counts):
    counts["screening.irls_iterations"] += fit.iterations


def _grow_facts(tree, counts):
    counts["cart.grow_nodes"] += tree.node_count()
    counts["cart.grow_depth"] = max(counts["cart.grow_depth"], tree.depth())


def _predict_facts(result, counts):
    counts["rows_out"] = len(result[0])


#: Exact counts, taken after each call returns; all but the call count
#: are read from the return value.
COUNTS = ("dataset.load_csv_calls", "dataset.clean_dropped_rows",
          "screening.irls_iterations", "cart.grow_nodes", "cart.grow_depth",
          "rows_in", "rows_out")
FACTS = {
    "dataset.load_csv": _load_csv_facts,
    "dataset.clean": _clean_facts,
    "screening.fit_logistic": _fit_facts,
    "cart.grow": _grow_facts,
    "cart.predict_dataset": _predict_facts,
}


def _swap(value, table):
    """value with wrapped functions substituted, recursing into the
    containers a module may hold function references in."""
    if isinstance(value, types.FunctionType):
        return table.get(id(value), value)
    if isinstance(value, tuple):
        new = tuple(_swap(v, table) for v in value)
        return value if all(a is b for a, b in zip(new, value)) else new
    if isinstance(value, list):
        value[:] = [_swap(v, table) for v in value]
    elif isinstance(value, dict):
        for key in list(value):
            value[key] = _swap(value[key], table)
    return value


class Tracer:
    """Spans (prefix, start, end, parent) plus counts from return values."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[int] = []

    def _wrap(self, prefix, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        facts = FACTS.get(prefix)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [prefix, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if facts is not None:
                facts(result, counts)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> list[str]:
        """Wrap every listed function at every reference; return the
        names of originals something still holds."""
        table, originals = {}, []
        for module_name, functions in LAYERS.items():
            module = sys.modules[module_name]
            for name, prefix in functions.items():
                fn = getattr(module, name)
                table[id(fn)] = self._wrap(prefix, fn)
                originals.append(fn)
        for name, module in list(sys.modules.items()):
            if name == "solvency" or name.startswith("solvency."):
                namespace = vars(module)
                for attr in list(namespace):
                    namespace[attr] = _swap(namespace[attr], table)
        allowed = {id(originals)}
        for wrapper in table.values():
            allowed.update(id(cell) for cell in wrapper.__closure__)
        unreached = []
        for fn in originals:
            holders = [r for r in gc.get_referrers(fn)
                       if id(r) not in allowed
                       and not isinstance(r, types.FrameType)]
            if holders:
                unreached.append(f"{fn.__module__}.{fn.__name__}")
        return unreached

    def summary(self) -> dict:
        """Seconds per prefix, stage self times, and counts."""
        out = {f"{p}_s": 0.0 for fs in LAYERS.values() for p in fs.values()}
        out.update({f"cli.{s}_self_s": 0.0 for s in STAGES})
        inner = [0.0] * len(self.spans)
        for prefix, start, end, parent in self.spans:
            out[f"{prefix}_s"] += end - start
            if parent >= 0:
                inner[parent] += end - start
        for i, (prefix, start, end, _) in enumerate(self.spans):
            if prefix.startswith("cli."):
                out[f"{prefix}_self_s"] += end - start - inner[i]
        out.update(self.counts)
        return out

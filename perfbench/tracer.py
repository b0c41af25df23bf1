"""Outside-in tracer: wraps public crossgen functions from the benchmark's side.

The tracer changes no file under ``src/``. On entry it replaces each target
function or method with a timing wrapper, rebinding the name in every
``crossgen`` module that holds it (``from .nn import adamw_step`` leaves a
second binding in ``diffusion``, ``jointgen``, ``bridging`` and
``evalkit``). On exit it restores every binding.

Each wrapped call records a span ``[name, parent, start, end]``; spans stay
in memory and are summarised (and optionally written out) at the end. A
layer's self time is its span's duration minus the durations of its direct
child spans. Tape nodes are counted per op from ``tensor.tape()`` before
every ``reset_tape`` and once more on exit.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter, defaultdict
from operator import attrgetter
from pathlib import Path
from time import perf_counter

WRAPPED_MARK = "__perfbench_wrapped__"


def _rows(index):
    """Count of input rows taken from positional argument ``index``."""
    return lambda args, kwargs, result: ("rows", len(args[index]))


def _file_bytes(args, kwargs, result):
    """Size of the file named by the first argument, after the call."""
    return "bytes", os.path.getsize(args[0])


# (module, attribute path, span name, extra counter). An attribute path with
# a dot names a method on a class defined in that module.
TARGETS = (
    ("tensor", "backward", "tensor.backward", None),
    ("nn", "adamw_step", "nn.adamw_step", None),
    ("toydata", "generate_dataset", "toydata.generate_dataset", None),
    ("toydata", "save_dataset", "toydata.save_dataset", None),
    ("toydata", "load_dataset", "toydata.load_dataset", None),
    ("bridging", "train_alignment", "bridging.train_alignment", None),
    ("bridging", "PromptEncoders.encode_batch", "bridging.encode_batch", _rows(2)),
    ("conditioning", "draw_conditioning_batch", "conditioning.draw_conditioning_batch", None),
    ("diffusion", "ImageCodec.fit", "diffusion.codec_fit", None),
    ("diffusion", "TextCodec.fit", "diffusion.codec_fit", None),
    ("diffusion", "ImageCodec.encode", "diffusion.codec_encode", _rows(1)),
    ("diffusion", "TextCodec.encode", "diffusion.codec_encode", _rows(1)),
    ("diffusion", "ImageCodec.decode", "diffusion.codec_decode", None),
    ("diffusion", "TextCodec.decode", "diffusion.codec_decode", None),
    ("diffusion", "Denoiser.forward", "diffusion.denoiser_forward", None),
    ("diffusion", "train_ldm", "diffusion.train_ldm", None),
    ("diffusion", "sample_latents", "diffusion.sample_latents", None),
    ("jointgen", "train_joint", "jointgen.train_joint", None),
    ("jointgen", "coupled_pair_loss", "jointgen.coupled_pair_loss", None),
    ("jointgen", "joint_sample", "jointgen.joint_sample", None),
    ("jointgen", "ProjectionEncoder.project", "jointgen.project", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", _file_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", _file_bytes),
    ("checkpoint", "file_checksum", "checkpoint.file_checksum", None),
    ("evalkit", "train_classifier", "evalkit.train_classifier", None),
    ("evalkit", "frechet_distance", "evalkit.frechet_distance", None),
    ("evalkit", "bleu", "evalkit.bleu", None),
    ("config", "config_hash", "config.config_hash", None),
    ("pipeline", "run_gen_data", "pipeline.run_gen_data", None),
    ("pipeline", "run_train_align", "pipeline.run_train_align", None),
    ("pipeline", "run_train_ldm", "pipeline.run_train_ldm", None),
    ("pipeline", "run_train_joint", "pipeline.run_train_joint", None),
    ("pipeline", "run_train_classifier", "pipeline.run_train_classifier", None),
    ("pipeline", "generate_samples", "pipeline.generate_samples", None),
    ("cli", "run_utility", "cli.run_utility", None),
    ("cli", "run_intra_study", "cli.run_intra_study", None),
)

ROOT_SPAN = "bench"


def _crossgen_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "crossgen" or name.startswith("crossgen."))]


class Tracer:
    """Context manager that traces the listed crossgen layers while active."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.ops: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.wall_s = 0.0
        self._t0 = 0.0

    # -- installation -----------------------------------------------------

    def __enter__(self):
        import importlib
        modules = {name: importlib.import_module(f"crossgen.{name}")
                   for name in {t[0] for t in TARGETS}}
        for mod_name, attr, span, extra in TARGETS:
            module = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span, original, extra))
            else:
                self._rebind(getattr(module, attr), self._wrap(
                    span, getattr(module, attr), extra))
        tensor = modules["tensor"]
        self._rebind(tensor.reset_tape, self._tape_hook(tensor))
        self._tensor = tensor
        self.spans.append([ROOT_SPAN, -1, perf_counter(), 0.0])
        self._stack.append(0)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.spans[self._stack.pop()][3] = perf_counter()
        self.wall_s = perf_counter() - self._t0
        self._count_tape(self._tensor)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _rebind(self, original, replacement):
        for module in _crossgen_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, replacement)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack
        counters = self.counters[name]

        def wrapper(*args, **kwargs):
            spans.append([name, stack[-1], perf_counter(), 0.0])
            idx = len(spans) - 1
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()
            if extra is not None:
                key, amount = extra(args, kwargs, result)
                counters[key] += amount
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, WRAPPED_MARK, True)
        return wrapper

    def _count_tape(self, tensor) -> None:
        self.ops.update(map(attrgetter("op"), tensor.tape().nodes))

    def _tape_hook(self, tensor):
        original = tensor.reset_tape

        def reset_tape():
            self._count_tape(tensor)
            original()

        reset_tape.__wrapped__ = original
        setattr(reset_tape, WRAPPED_MARK, True)
        return reset_tape

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        for name, counts in self.counters.items():
            out[name].update(counts)
        return dict(out)

    def write(self, path) -> None:
        """Write every span (name, parent index, start, end) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        doc = {"fields": ["name", "parent", "start_s", "end_s"],
               "spans": [[n, p, round(s - origin, 9), round(e - origin, 9)]
                         for n, p, s, e in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def leftover_wrappers() -> list[str]:
    """Names of crossgen bindings that still hold a tracer wrapper."""
    found = []
    for module in _crossgen_modules():
        for name, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for meth, fn in vars(value).items():
                    if getattr(fn, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{name}.{meth}")
    return found

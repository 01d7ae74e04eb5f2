"""Spans and counts at the dsmg module boundaries, recorded from outside.

No program file changes. Each public function is rebound where its caller
looks it up -- `dsmg.cli.factorize_svd`, not `dsmg.linalg.factorize_svd`,
because `cli` imported it by name -- so every call opens a span with its
name, start, end, parent and op id. Spans stay in memory and are written out
at the end of the run. A layer's self time is its spans' time minus the time
their child spans cover, so the self times of one op add up to the op.

Lazy spectral set-up inside `NoisyProblem` (the projection U* f and the
padded spectrum) runs during the first residual pass, so it is charged to
`solver.pass`. A rebinding whose target no longer exists is skipped and
reported, so the benchmark keeps running on later versions of the program.
"""

import functools
import os
import threading
import time
from collections import Counter

# inclusive time per op of each span name, reported as "<name>_s"
SPAN_NAMES = (
    "cli.load_matrix", "pgm.read", "pgm.write", "deconvolution.fft",
    "solver.solve", "solver.pass", "solver.synth", "baselines.vr",
    "linalg.factorize", "problems.build", "problems.noise",
)
# self time per op of each layer, reported as "<layer>.self_s"; sums to the op time
LAYERS = (
    "cli", "pgm", "deconvolution", "deconvolution.fft", "solver",
    "baselines", "linalg", "problems",
)
# counts per op, with their units; *_bytes of passes are computed, not measured
COUNTS = {
    "cli.load_matrix_bytes": "bytes",
    "pgm.bytes": "bytes",
    "deconvolution.fft_calls": "count",
    "solver.psi_passes": "count",
    "solver.dpsi_passes": "count",
    "solver.newton_iters": "count",
    "solver.t0_probes": "count",
    "solver.modes": "count",
    "solver.pass_bytes": "bytes_computed",
    "baselines.vr_passes": "count",
    "linalg.factorize_calls": "count",
    "linalg.basis_bytes": "bytes",
}
_LAYER_OF = {"op": "cli", "deconvolution.fft": "deconvolution.fft"}


class Tracer:
    """In-memory span recorder; one root span "op" per CLI command."""

    def __init__(self):
        self.spans = []  # [op_id, name, start_ns, end_ns, parent_index]
        self.counts = {}  # op_id -> Counter
        self._local = threading.local()
        self._op = None
        self._root = -1

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        self.spans.append([self._op, name, time.perf_counter_ns(), 0, parent])
        stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack().pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self.counts[op_id] = Counter()
        self._root = -1
        self._root = self._open("op")

    def end_op(self) -> None:
        self._close(self._root)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts.setdefault(self._op, Counter())[name] += amount

    def wrap(self, fn, name, after=None):
        """Return ``fn`` inside a span ``name`` (None: count only), then run ``after``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def summarize(self) -> list:
        """Per op: its time, inclusive time per span name, self time per layer, counts."""
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append((span[2], span[3]))
        ops = {}
        for index, (op_id, name, start, end, _) in enumerate(self.spans):
            summary = ops.setdefault(op_id, {
                "op": op_id, "op_ns": 0, "span_ns": Counter(), "self_ns": Counter(),
                "counts": dict(self.counts.get(op_id, {})),
            })
            if name == "op":
                summary["op_ns"] = end - start
            else:
                summary["span_ns"][name] += end - start
            layer = _LAYER_OF.get(name, name.split(".")[0])
            summary["self_ns"][layer] += end - start - _covered(children.get(index, []))
        return [ops[key] for key in sorted(ops)]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("op,name,start_ns,end_ns,parent\n")
            for op_id, name, start, end, parent in self.spans:
                handle.write(f"{op_id},{name},{start},{end},{parent}\n")


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals, in ns."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _file_bytes(metric, position, keyword):
    def after(tracer, args, kwargs, _result):
        tracer.count(metric, os.path.getsize(_arg(args, kwargs, position, keyword)))
    return after


def _counter(metric):
    def after(tracer, _args, _kwargs, _result):
        tracer.count(metric)
    return after


def _after_solve(tracer, args, kwargs, report):
    problem = _arg(args, kwargs, 0, "problem")
    tracer.count("solver.modes", len(problem.f_delta))
    tracer.count("solver.newton_iters", getattr(report, "newton_iterations", 0))
    tracer.count("solver.t0_probes", getattr(report, "t0_probes", 0))


def _pass_counter(metric):
    def after(tracer, args, kwargs, _result):
        # one float64 eigenvalue plus one residual coefficient read per mode
        data = _arg(args, kwargs, 0, "problem").f_delta
        tracer.count(metric)
        tracer.count("solver.pass_bytes", len(data) * (8 + data.itemsize))
    return after


def _after_factorize(tracer, _args, _kwargs, fact):
    tracer.count("linalg.factorize_calls")
    for basis in (getattr(fact, "u_basis", None), getattr(fact, "v_basis", None)):
        if basis is not None:
            tracer.count("linalg.basis_bytes", basis.nbytes)


def install(tracer: Tracer) -> list:
    """Rebind the traced functions; return the names that no longer exist."""
    import numpy.fft

    import dsmg.baselines
    import dsmg.cli
    import dsmg.deconvolution
    import dsmg.solver

    fft = _counter("deconvolution.fft_calls")
    patches = [
        (dsmg.cli, "load_matrix", "cli.load_matrix", _file_bytes("cli.load_matrix_bytes", 0, "path")),
        (dsmg.cli, "read_pgm", "pgm.read", _file_bytes("pgm.bytes", 0, "path")),
        (dsmg.cli, "write_pgm", "pgm.write", _file_bytes("pgm.bytes", 1, "path")),
        (dsmg.cli, "deconvolve_2d", "deconvolution", None),
        (numpy.fft, "fft2", "deconvolution.fft", fft),
        (numpy.fft, "ifft2", "deconvolution.fft", fft),
        (numpy.fft, "rfft2", "deconvolution.fft", fft),
        (numpy.fft, "irfft2", "deconvolution.fft", fft),
        (dsmg.cli, "solve", "solver.solve", _after_solve),
        (dsmg.deconvolution, "solve", "solver.solve", _after_solve),
        (dsmg.solver, "discrepancy", "solver.pass", _pass_counter("solver.psi_passes")),
        (dsmg.solver, "discrepancy_derivative", "solver.pass", _pass_counter("solver.dpsi_passes")),
        (dsmg.solver, "solution_at", "solver.synth", None),
        (dsmg.cli, "vr_solve", "baselines.vr", None),
        (dsmg.baselines, "_vr_residual", None, _counter("baselines.vr_passes")),
        (dsmg.cli, "factorize_svd", "linalg.factorize", _after_factorize),
        (dsmg.cli, "second_derivative_problem", "problems.build", None),
        (dsmg.cli, "add_noise", "problems.noise", None),
    ]
    missing = []
    for module, attr, name, after in patches:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{attr}")
        else:
            setattr(module, attr, tracer.wrap(fn, name, after))
    return missing

"""Outside-in tracing of boundshift's layers from the benchmark's own files.

The pipeline imports names directly (``from .codec import compress``), so a
span is installed where the caller looks the name up: wrapping
``boundshift.codec.compress`` would miss every call the pipeline makes.
Each wrapped call records a span (name, start, end, parent, op id) in
memory; counters are read from the call's own arguments and results after
the span has ended, and the time that bookkeeping takes is excluded from
both the span's and its parent's self time.
"""

import hashlib
import json
import statistics
import time

# Spans that must fire in every traced op of a workload. A later refactor
# that moves a call would otherwise report its layer as zero without notice.
_CORE = {
    "preprocess.forward", "codec.compress", "embedder.capacity",
    "embedder.embed", "embedder.frame", "predictor.predict_grid",
}
_ROUNDTRIP = _CORE | {
    "pipeline.embed_full", "pipeline.extract_full", "preprocess.inverse",
    "codec.decompress", "embedder.extract",
}
EXPECTED_SPANS = {
    "roundtrip-512": _ROUNDTRIP,
    "auto-128": _ROUNDTRIP | {
        "cli.main", "pgm.read", "pgm.write", "pipeline.sweep",
        "pipeline.evaluate_cell", "codec.baseline",
    },
    "corpus-analyze": _CORE | {
        "cli.main", "pgm.read", "pipeline.evaluate_cell", "codec.baseline",
    },
}

# Span records are lists: [id, name, start_ns, end_ns, parent_id, op, child_ns, attrs].
_ID, _NAME, _START, _END, _PARENT, _OP, _CHILD, _ATTRS = range(8)


def _map_hash(symbols):
    return hashlib.blake2b(symbols.tobytes(), digest_size=16).digest()


def _count_compress(args, kwargs, result):
    symbols = args[0].symbols
    return {"symbols": int(symbols.size), "bits": result.bit_length, "hash": _map_hash(symbols)}


def _count_decompress(args, kwargs, result):
    return {"symbols": int(result.symbols.size)}


def _count_forward(args, kwargs, result):
    clear = 2 * result.params.shift
    return {"marked": int((result.locmap.symbols != clear).sum())}


def _count_capacity(args, kwargs, result):
    return {"room": int(result)}


def _count_cell(args, kwargs, result):
    return {"unfit": result.psnr_db is None}


class Tracer:
    """Installs span wrappers into a loaded boundshift and keeps the spans."""

    def __init__(self, program):
        self.header_bits = program.embedder.FRAME_HEADER_BITS
        self.spans = []
        self._stack = []
        self._op = None
        self._patches = []
        cli, pipeline = program.cli, program.pipeline
        embedder_cls = program.embedder.PredictionErrorEmbedder
        table = [
            ("codec.compress", [(pipeline, "compress")], _count_compress),
            ("codec.decompress", [(pipeline, "decompress")], _count_decompress),
            ("codec.baseline", [(pipeline, "compress_binary_baseline")], None),
            ("preprocess.forward", [(pipeline, "forward")], _count_forward),
            ("preprocess.inverse", [(pipeline, "inverse")], None),
            ("predictor.predict_grid",
             [(program.preprocess, "predict_grid"), (program.embedder, "predict_grid")], None),
            ("embedder.capacity", [(embedder_cls, "capacity")], _count_capacity),
            ("embedder.embed", [(embedder_cls, "embed")], None),
            ("embedder.extract", [(embedder_cls, "extract")], None),
            ("embedder.frame", [(pipeline, "frame_payload"), (pipeline, "deframe_payload")], None),
            ("pipeline.embed_full", [(pipeline, "embed_full"), (cli, "embed_full")], None),
            ("pipeline.extract_full", [(pipeline, "extract_full"), (cli, "extract_full")], None),
            ("pipeline.sweep", [(pipeline, "sweep"), (cli, "sweep")], None),
            ("pipeline.evaluate_cell",
             [(pipeline, "evaluate_cell"), (cli, "evaluate_cell")], _count_cell),
            ("pgm.read", [(cli, "load_pgm")], None),
            ("pgm.write", [(cli, "save_pgm")], None),
            ("cli.main", [(cli, "main")], None),
        ]
        wrappers = {}
        for name, sites, count in table:
            for owner, attr in sites:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, count)
                self._patches.append((owner, attr, original, wrappers[id(original)]))

    def _wrap(self, name, fn, count):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            rec = [len(tracer.spans), name, 0, 0,
                   parent[_ID] if parent else None, tracer._op, 0, None]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += rec[_END] - rec[_START]
            if count is not None:
                rec[_ATTRS] = count(args, kwargs, result)
                if parent is not None:
                    parent[_CHILD] += clock() - rec[_END]
            return result

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op_id, fn):
        """Run fn() as one traced op; its spans carry op_id."""
        self._op = op_id
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()
            self._op = None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                attrs = rec[_ATTRS]
                if attrs and "hash" in attrs:
                    attrs = dict(attrs, hash=attrs["hash"].hex())
                fh.write(json.dumps({
                    "id": rec[_ID], "name": rec[_NAME], "start_ns": rec[_START],
                    "end_ns": rec[_END], "parent": rec[_PARENT], "op": rec[_OP],
                    "self_ns": rec[_END] - rec[_START] - rec[_CHILD], "attrs": attrs,
                }) + "\n")

    def ops(self):
        """Spans grouped by op id, in call order."""
        grouped = {}
        for rec in self.spans:
            grouped.setdefault(rec[_OP], []).append(rec)
        return grouped


def missing_spans(workload, op_spans):
    """Expected span names that did not fire in this op."""
    fired = {rec[_NAME] for rec in op_spans}
    return sorted(EXPECTED_SPANS[workload] - fired)


# Layer values that are rates, not totals: not divided by the op count.
_RATES = {"codec.compress.ns_per_symbol", "codec.decompress.ns_per_symbol",
          "pipeline.sweep.repeat_coding_ratio"}


def layer_metrics(cycle_spans, ops, header_bits):
    """Per-layer values per op, over the spans of one cycle of `ops` traced
    ops (a cycle covers every input once); header_bits is the frame header
    size."""
    self_ns = {}
    calls = {}
    attrs = {}
    children = {}
    for rec in cycle_spans:
        name = rec[_NAME]
        self_ns[name] = self_ns.get(name, 0) + rec[_END] - rec[_START] - rec[_CHILD]
        calls[name] = calls.get(name, 0) + 1
        if rec[_ATTRS] is not None:
            attrs.setdefault(name, []).append(rec[_ATTRS])
        children.setdefault(rec[_PARENT], []).append(rec)

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    def total(name, key):
        return sum(a[key] for a in attrs.get(name, []))

    def per_symbol(name):
        symbols = total(name, "symbols")
        return self_ns.get(name, 0) / symbols if symbols else 0.0

    cells = distinct = prunable = psnr_embeds = 0
    for rec in cycle_spans:
        if rec[_NAME] != "pipeline.sweep":
            continue
        best = None
        hashes = set()
        for cell in children.get(rec[_ID], []):
            if cell[_NAME] != "pipeline.evaluate_cell":
                continue
            cells += 1
            room = bits = 0
            for sub in children.get(cell[_ID], []):
                if sub[_NAME] == "embedder.capacity":
                    room = sub[_ATTRS]["room"]
                elif sub[_NAME] == "codec.compress":
                    bits = sub[_ATTRS]["bits"]
                    hashes.add(sub[_ATTRS]["hash"])
                elif sub[_NAME] == "embedder.embed":
                    psnr_embeds += 1
            # Bound-pruning could skip this cell's map coding: even a free
            # map leaves room - header bits, which cannot beat the best so far.
            if best is not None and room - header_bits <= best:
                prunable += 1
            payload_room = max(0, room - header_bits - bits)
            best = payload_room if best is None else max(best, payload_room)
        distinct += len(hashes)

    pipeline_ms = sum(ms(n) for n in self_ns if n.startswith("pipeline."))
    values = {
        "codec.compress.self_ms": ms("codec.compress"),
        "codec.compress.calls": calls.get("codec.compress", 0),
        "codec.compress.ns_per_symbol": per_symbol("codec.compress"),
        "codec.decompress.self_ms": ms("codec.decompress"),
        "codec.decompress.ns_per_symbol": per_symbol("codec.decompress"),
        "codec.baseline.self_ms": ms("codec.baseline"),
        "codec.map_bits": total("codec.compress", "bits"),
        "preprocess.forward.self_ms": ms("preprocess.forward"),
        "preprocess.forward.calls": calls.get("preprocess.forward", 0),
        "preprocess.inverse.self_ms": ms("preprocess.inverse"),
        "preprocess.marked_cells": total("preprocess.forward", "marked"),
        "predictor.predict_grid.calls": calls.get("predictor.predict_grid", 0),
        "predictor.predict_grid.self_ms": ms("predictor.predict_grid"),
        "embedder.capacity.self_ms": ms("embedder.capacity"),
        "embedder.embed.self_ms": ms("embedder.embed"),
        "embedder.extract.self_ms": ms("embedder.extract"),
        "embedder.frame.self_ms": ms("embedder.frame"),
        "embedder.carriers": total("embedder.capacity", "room"),
        "pipeline.sweep.cells": cells,
        "pipeline.sweep.distinct_maps": distinct,
        "pipeline.sweep.repeat_coding_ratio": (cells - distinct) / cells if cells else 0.0,
        "pipeline.sweep.cells_prunable": prunable,
        "pipeline.sweep.psnr_embeds": psnr_embeds,
        "pipeline.cells_unfit": sum(a["unfit"] for a in attrs.get("pipeline.evaluate_cell", [])),
        "pipeline.self_ms": pipeline_ms,
        "pgm.read.self_ms": ms("pgm.read"),
        "pgm.write.self_ms": ms("pgm.write"),
        "cli.self_ms": ms("cli.main"),
    }
    return {name: v if name in _RATES else v / ops for name, v in values.items()}


def median_layer_metrics(per_cycle):
    """Median over traced cycles of each per-op layer value."""
    return {name: statistics.median(values[name] for values in per_cycle)
            for name in per_cycle[0]}

"""Metric arithmetic of the benchmark.

The runner binary (perfbench/src) measures and checks; this module turns
its raw record into the named metrics of BENCHMARK.json:

* percentiles by nearest rank, with the support rule: a percentile is
  reported only when at least ten samples lie beyond it, otherwise the
  highest percentile that has ten is used and the table says so;
* time to first token and the gaps between tokens, derived from the
  per-request delivery stamps the benchmark's callback took;
* ratios printed with their base; a ratio over an empty base is 0.
"""

import math
import statistics
from fractions import Fraction

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
CANDIDATE_PERCENTILES = (50, 90, 99, 99.9)

DECODER = ("decode_batch", "prefix_storm")
ALL = DECODER + ("encoder_batch",)
# Workloads whose traced session replay repeats the served work exactly,
# so replay totals (MACs, modeled cycles, busy time) describe the program.
REPLAYED = ("decode_batch", "encoder_batch")

NOT_APPLICABLE = {
    "prefix_storm": "the solo session replay does not repeat the engine's schedule",
    "encoder_batch": "no scheduler, KV cache, prefix cache or token policy",
}


class BenchError(Exception):
    """A record the metric arithmetic refuses (missing or malformed)."""


# --- percentiles ----------------------------------------------------------------


def nearest_rank(n, p):
    """1-based nearest-rank index of percentile p over n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    return n - nearest_rank(n, p)


def highest_supported(n, candidates=CANDIDATE_PERCENTILES):
    """Highest candidate percentile with MIN_BEYOND samples beyond it."""
    supported = [p for p in candidates if samples_beyond(n, p) >= MIN_BEYOND]
    return max(supported) if supported else None


def percentile(values, p):
    """(value, percentile used, sample count) for the p-th percentile.

    Falls back to the highest supported percentile below p when the sample
    is too small for p; with no supported percentile at all the median of
    what there is is returned and the caller sees used = None.
    """
    n = len(values)
    if n == 0:
        return 0.0, None, 0
    used = p if samples_beyond(n, p) >= MIN_BEYOND else None
    if used is None:
        lower = [c for c in CANDIDATE_PERCENTILES if c < p]
        used = highest_supported(n, lower)
    ordered = sorted(values)
    rank = nearest_rank(n, used if used is not None else 50)
    return float(ordered[rank - 1]), used, n


# --- stamps, ratios ----------------------------------------------------------


def ttft_and_gaps(stamps):
    """Per-request delivery stamps (ms from the moment every request was
    due) -> (first-token times, gaps between successive tokens of the same
    request). A request without stamps contributes to neither."""
    ttft = [s[0] for s in stamps if s]
    gaps = [b - a for s in stamps for a, b in zip(s, s[1:])]
    return ttft, gaps


def ratio(num, base):
    """(num / base, base); 0 when the base is empty."""
    return (num / base if base else 0.0), base


# --- end-to-end metrics ----------------------------------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tok_s", "tok/s"),
    ("gen_tok_s", "tok/s"),
    ("ttft_ms_p50", "ms"),
    ("ttft_ms_p90", "ms"),
    ("tpot_ms_p50", "ms"),
    ("tpot_ms_p99", "ms"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("slo_ok_ratio", "ratio"),
    ("latency_rounds_p90", "rounds"),
    ("table1_err_pct", "%"),
)


def check_exact_repeats(passes):
    """Every pass of one run serves the same seeded inputs, so the exact
    part of each pass must repeat bit for bit. Returns the error list."""
    first = passes[0]["exact"]
    return [
        f"pass {i}: exact outcome differs from pass 0"
        for i, p in enumerate(passes[1:], start=1)
        if p["exact"] != first
    ]


def end_to_end(raw):
    """Raw untraced record -> {name: (value, unit, note)}."""
    passes = raw["passes"]
    if not passes:
        raise BenchError("record has no passes")
    out = {}

    def put(name, value, note=""):
        out[name] = (float(value), dict(END_TO_END)[name], note)

    def put_pct(name, per_pass, p, what):
        # The percentile of each pass, then the median over passes: one
        # pass slowed by a noisy host moves the result less than pooling.
        results = [percentile(values, p) for values in per_pass]
        _, used, n = results[0]
        if used is None or any(r[1] != used for r in results):
            raise BenchError(f"{name}: n={n} per pass does not support one percentile")
        note = f"p{used:g} of n={n} {what}"
        if len(per_pass) > 1:
            note += f", median of {len(per_pass)} passes"
        if used != p:
            note += f" (p{p:g} needs more samples)"
        put(name, statistics.median(r[0] for r in results), note)

    setups = raw["setup_s"]
    put("setup_s", statistics.median(setups), f"median of {len(setups)} setups")
    put("peak_rss_mb", raw["peak_rss_kb"] / 1024.0, "process peak RSS")
    walls = [p["wall_ms"] / 1e3 for p in passes]
    note = f"median of {len(passes)} passes"
    put("tok_s", statistics.median(p["served_rows"] / w for p, w in zip(passes, walls)), note)
    put("gen_tok_s", statistics.median(p["gen_tokens"] / w for p, w in zip(passes, walls)), note)

    derived = [ttft_and_gaps(p["stamps_ms"]) for p in passes]
    ttft = [t for t, _ in derived]
    if raw["workload"] == "encoder_batch":
        # A forward emits all its rows at once: time per output row.
        tpot = [[ms / p["rows_per_request"] for ms in p["request_ms"]] for p in passes]
        tpot_what = "forwards (ms per output row)"
    else:
        tpot, tpot_what = [g for _, g in derived], "token gaps"
    request = [p["request_ms"] for p in passes]
    put_pct("ttft_ms_p50", ttft, 50, "requests")
    put_pct("ttft_ms_p90", ttft, 90, "requests")
    put_pct("tpot_ms_p50", tpot, 50, tpot_what)
    put_pct("tpot_ms_p99", tpot, 99, tpot_what)
    put_pct("request_ms_p50", request, 50, "requests")
    put_pct("request_ms_p90", request, 90, "requests")

    first = passes[0]
    value, base = ratio(first["slo_ok"], first["sent"])
    put("slo_ok_ratio", value, f"{first['slo_ok']}/{base} requests on time")
    put_pct("latency_rounds_p90", [first["latency_rounds"]], 90, "completed requests")
    put("table1_err_pct", raw["table1_err_pct"], "mean |err| over 9 rows")
    return out


# --- per-layer metrics -----------------------------------------------------------

# (name, unit, workloads it applies to, kind, source). Kinds: "value" reads
# one number; "ratio" divides two; "one_minus" is 1 - ratio; "growth" is
# ratio - 1; "pct" takes a percentile of a sample list.
PER_LAYER = (
    ("qgemm.m1.gmac_s", "GMAC/s", ALL, "value", "qgemm.m1.gmac_s"),
    ("qgemm.m1_ffn.gmac_s", "GMAC/s", ALL, "value", "qgemm.m1_ffn.gmac_s"),
    ("qgemm.m16.gmac_s", "GMAC/s", ALL, "value", "qgemm.m16.gmac_s"),
    ("qgemm.m128.gmac_s", "GMAC/s", ALL, "value", "qgemm.m128.gmac_s"),
    ("engine.macs_per_tok", "MAC/tok", REPLAYED, "ratio", ("engine.macs", "served_tokens")),
    ("engine.gmac_s", "GMAC/s", REPLAYED, "ratio", ("engine.macs", "session.busy_ns")),
    ("model.cycles_per_tok", "cycles/tok", REPLAYED, "ratio", ("model.cycles", "served_tokens")),
    ("model.encoder_ms", "ms", ALL, "value", "model.encoder_ms"),
    ("session.decode_step_us.p50", "us", DECODER, "pct", ("session.decode_step_us", 50)),
    ("session.decode_step_us.p99", "us", DECODER, "pct", ("session.decode_step_us", 99)),
    ("session.prefill_row_us.p50", "us", ALL, "pct", ("session.prefill_row_us", 50)),
    ("stage.mha_us", "us", ALL, "pct", ("stage.mha_us", 50)),
    ("stage.ffn_us", "us", ALL, "pct", ("stage.ffn_us", 50)),
    ("stage.covered_share", "ratio", ALL, "ratio", ("stage.busy_ns", "session.busy_ns")),
    ("traffic.rounds", "rounds", DECODER, "value", "traffic.rounds"),
    ("traffic.decode_steps", "count", DECODER, "value", "traffic.decode_steps"),
    ("traffic.prefill_chunks", "count", DECODER, "value", "traffic.prefill_chunks"),
    ("traffic.rows_per_round", "units/round", DECODER, "ratio", ("traffic.units", "traffic.rounds")),
    ("traffic.max_active", "count", DECODER, "value", "traffic.max_active"),
    ("traffic.preemptions", "count", DECODER, "value", "traffic.preemptions"),
    ("traffic.shed", "count", DECODER, "value", "traffic.shed"),
    ("traffic.replayed_rows", "rows", DECODER, "value", "traffic.replayed_rows"),
    ("traffic.swap_bytes", "bytes", DECODER, "value", "traffic.swap_bytes"),
    ("traffic.overhead_share", "ratio", ("decode_batch",), "one_minus", ("replay.busy_ns", "engine.wall_ns")),
    ("traffic.run_setup_ms", "ms", DECODER, "value", "traffic.run_setup_ms"),
    ("traffic.queue_wait_rounds.p90", "rounds", DECODER, "value", "traffic.queue_wait_rounds.p90"),
    ("traffic.ttft_rounds.p90", "rounds", DECODER, "value", "traffic.ttft_rounds.p90"),
    ("traffic.ttft_us.p50", "us", DECODER, "value", "traffic.ttft_us.p50"),
    ("traffic.ttft_us.p90", "us", DECODER, "value", "traffic.ttft_us.p90"),
    ("kv.blocks_peak", "blocks", DECODER, "value", "kv.blocks_peak"),
    ("kv.block_waits", "count", DECODER, "value", "kv.block_waits"),
    ("kv.pool_occupancy.p50", "blocks", DECODER, "value", "kv.pool_occupancy.p50"),
    ("kv.span_runs_per_step", "runs/step", ("decode_batch",), "ratio", ("kv.decode_span_runs", "replay.decode_steps")),
    ("prefix.hit_ratio", "ratio", DECODER, "ratio", ("prefix.hits", "prefix.lookups")),
    ("prefix.rows_adopted_share", "ratio", DECODER, "ratio", ("prefix.rows_adopted", "prompt_rows")),
    ("prefix.cross_hit_ratio", "ratio", DECODER, "ratio", ("prefix.cross_hits", "prefix.cross_lookups")),
    ("prefix.evictions", "count", DECODER, "value", "prefix.evictions"),
    ("policy.next_token_us.p50", "us", DECODER, "pct", ("policy.next_token_us", 50)),
    ("trace.overhead_share", "ratio", ALL, "growth", ("traced.wall_ns", "plain.wall_ns")),
)


def per_layer(raw):
    """Raw traced record -> {name: (value, unit, note)}. Metrics that do
    not apply to the workload read 0 and say so."""
    workload = raw["workload"]
    values = dict(raw.get("layers", {}))
    values.update(raw.get("layers_exact", {}))
    samples = raw.get("samples", {})

    def get(key):
        if key not in values or values[key] is None:
            raise BenchError(f"traced record lacks {key}")
        return values[key]

    out = {}
    for name, unit, workloads, kind, source in PER_LAYER:
        if workload not in workloads:
            out[name] = (0.0, unit, f"n/a on {workload}: {NOT_APPLICABLE[workload]}")
            continue
        if kind == "value":
            value, note = get(source), ""
        elif kind == "pct":
            key, p = source
            value, used, n = percentile(samples.get(key, []), p)
            note = f"p{used:g} of n={n}" if used is not None else f"n={n}, unsupported"
            if used is not None and used != p:
                note += f" (p{p:g} needs more samples)"
        else:
            value, base = ratio(get(source[0]), get(source[1]))
            if kind == "one_minus":
                value = 1.0 - value
            elif kind == "growth":
                value = value - 1.0
            note = f"base {source[1]}={base:.6g}"
        out[name] = (float(value), unit, note)
    return out

"""Pure helpers of the performa benchmark: inputs from a seed, percentiles,
the failure rules, and trace output. run.py does the I/O around them.

Models use the paper's parameters: nu_p = 2, delta = 0.2, MTTF 90,
MTTR 10, exponential or TPT(alpha = 1.4) repairs.
"""

import json
import math
import random

NU_P = 2.0
DELTA = 0.2
MTTF = 90.0
MTTR = 10.0

# A request that fails or gets no answer within this many seconds is
# recorded at this latency, so it misses every latency limit.
REQUEST_TIMEOUT_S = 5.0
# Nearest-rank percentiles are reported only when at least this many
# samples lie beyond them.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked for with too few samples beyond it."""


def blowup_rhos(n):
    """Blow-up utilizations rho_1 > ... > rho_N of an N-node cluster."""
    a = MTTF / (MTTF + MTTR)
    up_rate = NU_P * (a + DELTA * (1.0 - a))
    nu = [(n - i) * up_rate + i * DELTA * NU_P for i in range(n + 1)]
    return [nu[i] / nu[0] for i in range(1, n + 1)]


def percentile(sorted_values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of an ascending list.

    Raises InsufficientSamples unless at least `min_beyond` samples lie
    beyond the returned one.
    """
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        raise InsufficientSamples(
            "p%g needs %d samples beyond it; %d samples give %d"
            % (q * 100, min_beyond, n, max(0, n - rank)))
    return sorted_values[rank - 1]


def min_samples(q, min_beyond=MIN_BEYOND):
    """The fewest samples that give a q-quantile (see percentile)."""
    n = min_beyond + 1
    while n - max(1, math.ceil(q * n)) < min_beyond:
        n += 1
    return n


def latency_ms(ok, measured_s, timeout_s=REQUEST_TIMEOUT_S):
    """Latency recorded for one operation: failures count at the timeout."""
    return (measured_s if ok else timeout_s) * 1e3


def fail_share(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in 0..attempted")
    return failed / attempted


# The hypervisor of a shared host can take CPU time from its virtual CPUs
# (steal time). A measuring window in which it took a tenth of all the
# host's CPU time ran up to twice as slow as a calm one, the same code on
# the same inputs, and steal changes from one second to the next. So a
# run measures many short windows and reports the REPORT_SHARE of them
# with the least steal.
REPORT_SHARE = 1.0 / 3.0


def report_count(measured, least=1):
    """How many of `measured` windows a run reports: REPORT_SHARE of
    them, at least `least` (and at most all)."""
    return min(measured, max(least, math.ceil(REPORT_SHARE * measured)))


def calmest(windows, count):
    """The `count` least-stolen windows, in the order they ran."""
    chosen = sorted(range(len(windows)), key=lambda i: windows[i]["steal"])
    return [windows[i] for i in sorted(chosen[:count])]


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of nothing")
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


# ------------------------------------------------------------- models

def exp_model(n, rho):
    return {"repair": "exp", "n": n, "rho": rho}


def tpt_model(n, phases, rho):
    return {"repair": "tpt", "n": n, "tpt_phases": phases, "rho": rho}


def working_set():
    """The fixed warm working set: name -> (phase count m, model fields).

    Exponential repair at m=3 and m=11, TPT T=10 N=2 (m=66) at four rho
    around the blow-up point rho_1, and TPT T=3 N=10 (m=286).
    """
    rho1 = blowup_rhos(2)[0]
    ws = {"exp-n2": (3, exp_model(2, 0.7)), "exp-n10": (11, exp_model(10, 0.7))}
    for tag, rho in (("a", 0.5), ("rho1", rho1), ("b", 0.7), ("c", 0.85)):
        ws["tpt-n2-" + tag] = (66, tpt_model(2, 10, rho))
    ws["tpt-n10"] = (286, tpt_model(10, 3, 0.7))
    return ws


def request_line(op, model, **extra):
    """One wire request; keys in a fixed order so equal requests are
    byte-equal lines."""
    fields = {"op": op}
    fields.update(model)
    fields.update(extra)
    return json.dumps(fields, separators=(",", ":"))


def warmup_lines():
    return [request_line("solve", model) for _, model in working_set().values()]


BLOCK_SIZE = 200
# Per-block request counts of each model, by model size; a block has 200
# requests. Each percentile falls inside one group of alike requests,
# not on the edge between two groups, so that jitter cannot move it
# from one group to the next: p50 among the 170 requests that cost
# little beyond the codec (every m=3 and m=11 request, and blowup, pmf
# and qos on m=66 and blowup on m=286), and p99 inside the four m=286
# large-k tails, the costliest requests.
_BLOCK = {
    3: {"mean": 12, "solve": 11, "tail_ksmall": 11, "tail_klarge": 11,
        "pmf": 11, "qos": 11, "blowup": 11},
    66: {"mean": 1, "solve": 1, "tail_ksmall": 1, "tail_klarge": 1, "pmf": 1,
         "qos": 1, "blowup": 1},
    286: {"mean": 2, "solve": 2, "tail_ksmall": 2, "tail_klarge": 4, "pmf": 2,
          "qos": 2, "blowup": 2},
}
WARM_OPS = ("mean", "solve", "tail_ksmall", "tail_klarge", "pmf", "qos",
            "blowup")


def warm_request(rng, kind, m, model):
    """One warm request of template `kind` on `model`. Parameters of the
    m=286 model are fixed (k=25, k=500, pmf k=10, d=5): those lines are
    the costly ones and the per-layer metrics name them."""
    big = m >= 286
    if kind == "tail_ksmall":
        return request_line("tail", model, k=25 if big else rng.randint(2, 64))
    if kind == "tail_klarge":
        return request_line("tail", model,
                            k=500 if big else rng.randint(100, 1000))
    if kind == "pmf":
        return request_line("pmf", model, k=10 if big else rng.randint(0, 40))
    if kind == "qos":
        d = 5.0 if big else round(rng.uniform(0.5, 10.0), 3)
        return request_line("qos", model, d=d)
    return request_line(kind, model)


def warm_requests(seed, blocks):
    """Seeded warm request lines: `blocks` blocks of 200, each with the
    fixed composition above in a seeded order."""
    rng = random.Random("query-warm/%d" % seed)
    out = []
    for _ in range(blocks):
        block = []
        for _, (m, model) in working_set().items():
            counts = _BLOCK[min(_BLOCK, key=lambda k: abs(k - m))]
            for kind, count in counts.items():
                block.extend(warm_request(rng, kind, m, model)
                             for _ in range(count))
        rng.shuffle(block)
        out.extend(block)
    return out


def serve_requests(seed, rate, seconds, deadline_ms, miss_every=20):
    """Seeded open-loop schedule: (send offset s, line, is_miss) with
    Poisson arrivals at `rate`. About one request in `miss_every` carries
    a fresh rho on the m=66 TPT model, so it is a real certified solve;
    the rest are warm hits on the working set."""
    rng = random.Random("serve-mixed/%d" % seed)
    ws = list(working_set().values())
    t = 0.0
    out = []
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        if rng.random() < 1.0 / miss_every:
            rho = round(rng.uniform(0.30, 0.90), 9)
            line = request_line("mean", tpt_model(2, 10, rho),
                                deadline_ms=deadline_ms)
            out.append((t, line, True))
            continue
        m, model = rng.choice(ws)
        kind = rng.choice(WARM_OPS)
        line = json.loads(warm_request(rng, kind, m, model))
        line["deadline_ms"] = deadline_ms
        out.append((t, json.dumps(line, separators=(",", ":")), False))


# ------------------------------------------------------------- cold points

def _families():
    rho1_n2 = blowup_rhos(2)[0]
    rho1_n3 = blowup_rhos(3)[0]
    return {
        "small": [
            ({"kind": "homog", "n": 2, "repair": "exp"}, (0.3, 0.9)),
            ({"kind": "homog", "n": 10, "repair": "exp"}, (0.3, 0.9)),
            ({"kind": "homog", "n": 2, "repair": "tpt", "T": 5}, (0.4, 0.85)),
            ({"kind": "homog", "n": 2, "repair": "tpt", "T": 10},
             (rho1_n2 - 0.05, rho1_n2 + 0.15)),
        ],
        "large": [
            ({"kind": "homog", "n": 3, "repair": "tpt", "T": 10},
             (rho1_n3 - 0.03, rho1_n3 + 0.05)),
            ({"kind": "homog", "n": 10, "repair": "tpt", "T": 3}, (0.6, 0.85)),
            ({"kind": "homog", "n": 20, "repair": "tpt", "T": 2}, (0.6, 0.85)),
        ],
        "ld": [
            ({"kind": "ld-boundary", "n": 10, "repair": "exp"}, (0.5, 0.85)),
            ({"kind": "ld-boundary", "n": 10, "repair": "tpt", "T": 2},
             (0.5, 0.85)),
            ({"kind": "facility", "n": 4, "c": 2, "s": 1, "repair": "tpt",
              "T": 5}, (0.5, 0.8)),
            ({"kind": "facility", "n": 10, "c": 3, "s": 0, "repair": "exp"},
             (0.5, 0.8)),
        ],
    }


CLASSES = ("small", "large", "ld")
# Cycles over each class's families in one round. Rounds interleave the
# classes, so each class is measured across the whole run. Cheap and
# costly families split the small and ld points evenly, so p50 of all
# point latencies falls among the fastest m=21 points; the one large
# cycle per round puts p99 inside the slowest large family.
ROUND = {"large": 1, "small": 12, "ld": 3}
# One point in W1_EVERY[cls] is recomputed at pool width 1.
W1_EVERY = {"small": 50, "large": 15, "ld": 50}
# Set-up work: fixed models solved before timing starts.
WARMUP_POINTS = (
    {"cls": "small", "kind": "homog", "n": 2, "repair": "tpt", "T": 10,
     "rho": 0.7},
    {"cls": "large", "kind": "homog", "n": 10, "repair": "tpt", "T": 3,
     "rho": 0.7},
    {"cls": "ld", "kind": "ld-boundary", "n": 10, "repair": "tpt", "T": 2,
     "rho": 0.7},
)


def cold_points(seed, rounds, per_round=None):
    """Seeded distinct model points, warm-up points first. Each round
    holds per_round[cls] cycles over each class's families, every point
    with a fresh rho from its family's band; "chunk" is the round and
    "fam" names the family."""
    per_round = per_round or ROUND
    rng = random.Random("solve-cold/%d" % seed)
    out = [dict(p, warmup=True) for p in WARMUP_POINTS]
    offsets = {cls: rng.randrange(W1_EVERY[cls]) for cls in CLASSES}
    counts = dict.fromkeys(CLASSES, 0)
    for r in range(rounds):
        for cls in ("large", "small", "ld"):
            for _ in range(per_round[cls]):
                for j, (family, band) in enumerate(_families()[cls]):
                    point = dict(family, cls=cls, fam="%s/%d" % (cls, j),
                                 chunk=r, rho=round(rng.uniform(*band), 9))
                    if counts[cls] % W1_EVERY[cls] == offsets[cls]:
                        point["w1"] = True
                    counts[cls] += 1
                    out.append(point)
    return out


def companion_points(rounds):
    """Fixed, seed-free cold points for the daemon workloads'
    points_per_s figures: identical work in every run."""
    return cold_points(0, rounds, {"large": 1, "small": 12, "ld": 6})


def points_per_s(family_latencies, cls):
    """Points per second of one class: its family count over the sum of
    the families' median point latencies (one cycle at median speed)."""
    fams = [f for f in family_latencies if f.startswith(cls + "/")]
    if not fams:
        raise ValueError("no %s point ran" % cls)
    return len(fams) / sum(median(family_latencies[f]) for f in fams)


# ------------------------------------------------------------- traces

def chrome_event(name, ts_us, dur_us, pid, span_id, parent, rid, value=None):
    args = {"id": span_id, "parent": parent, "rid": rid}
    if value is not None:
        args["value"] = value
    return {"name": name, "cat": "perfbench", "ph": "X", "ts": ts_us,
            "dur": dur_us, "pid": pid, "tid": 1, "args": args}


def write_trace(path, events):
    """Chrome trace_event JSONL: `[`, then one `{...},` record a line."""
    with open(path, "w") as fh:
        fh.write("[\n")
        for ev in events:
            fh.write(json.dumps(ev, separators=(",", ":")) + ",\n")


def self_times_us(events):
    """Per span name, total duration minus the time its direct children
    cover (children are linked by args.parent within one pid)."""
    child_us = {}
    for ev in events:
        key = (ev["pid"], ev["args"]["parent"])
        child_us[key] = child_us.get(key, 0.0) + ev["dur"]
    out = {}
    for ev in events:
        own = ev["dur"] - child_us.get((ev["pid"], ev["args"]["id"]), 0.0)
        out[ev["name"]] = out.get(ev["name"], 0.0) + own
    return out

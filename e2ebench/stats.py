"""Metric math of the end-to-end benchmark: percentiles, the open-loop latency
sample, /proc CPU times and Prometheus text. Pure functions, tested by
test_stats.py."""

import math
import statistics


def percentile(sorted_values, p):
    """Nearest-rank percentile (0 < p <= 1) of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def read_latency_sample(path):
    """Parses the driver's sample file: one "latency_ns acked lateness_ns"
    line per request due in the window. A request not acked by the end of the
    grace period carries its censored age as latency_ns and acked = 0."""
    latencies, lateness, acked = [], [], 0
    with open(path) as f:
        for line in f:
            lat, ok, late = line.split()
            latencies.append(int(lat))
            lateness.append(int(late))
            acked += int(ok)
    return latencies, lateness, acked


def latency_summary(latencies_ns, lateness_ns):
    """Median, p99 and p99.9 commit latency (ms) over the whole sample,
    censored entries included, plus the generator's p99 lateness (ms)."""
    lat = sorted(latencies_ns)
    late = sorted(lateness_ns)
    return {
        "p50_ms": percentile(lat, 0.50) / 1e6,
        "p99_ms": percentile(lat, 0.99) / 1e6,
        "p999_ms": percentile(lat, 0.999) / 1e6,
        "samples": len(lat),
        "late_p99_ms": percentile(late, 0.99) / 1e6,
    }


def proc_cpu_seconds(stat_text, clock_ticks):
    """utime + stime, in seconds, from the text of /proc/<pid>/stat or
    /proc/<pid>/task/<tid>/stat. The command name (field 2) may hold spaces
    and parentheses, so fields are counted after its closing ')'."""
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(rest[11]) + int(rest[12])) / clock_ticks


def cpu_diff(before, after):
    """Per-key CPU seconds spent between two {key: seconds} snapshots; keys
    missing from `before` (threads started in between) count from zero."""
    return {k: after[k] - before.get(k, 0.0) for k in after}


def parse_prometheus(text):
    """Prometheus text format → {(name, frozenset(labels)): value}."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            label_text, value = rest.rsplit("}", 1)
            labels = []
            for part in _split_labels(label_text):
                k, v = part.split("=", 1)
                labels.append((k.strip(), v.strip().strip('"')))
            key = (name, frozenset(labels))
        else:
            name, value = line.split(None, 1)
            key = (name, frozenset())
        out[key] = float(value.split()[0])
    return out


def _split_labels(text):
    parts, cur, quoted = [], "", False
    for ch in text:
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    return parts


def metric(samples, name, **labels):
    """Value of one series (0 when absent)."""
    return samples.get((name, frozenset(labels.items())), 0.0)


def metric_diff(before, after, name, **labels):
    return metric(after, name, **labels) - metric(before, name, **labels)


def histogram_buckets(samples, name, **labels):
    """Cumulative (le, count) pairs of one histogram, ascending by le."""
    want = set(labels.items())
    buckets = []
    for (series, lbls), value in samples.items():
        if series != name + "_bucket":
            continue
        d = dict(lbls)
        le = d.pop("le", None)
        if le is None or set(d.items()) != want:
            continue
        buckets.append((math.inf if le == "+Inf" else float(le), value))
    buckets.sort()
    return buckets


def histogram_quantile_diff(before_list, after_list, name, p, **labels):
    """p-quantile of the observations a histogram gained between two
    scrapes, summed over several endpoints, interpolated linearly inside the
    bucket that holds it (as Prometheus' histogram_quantile does). 0 when the
    histogram gained nothing."""
    gained = {}
    for before, after in zip(before_list, after_list):
        b = dict(histogram_buckets(before, name, **labels))
        for le, count in histogram_buckets(after, name, **labels):
            gained[le] = gained.get(le, 0.0) + count - b.get(le, 0.0)
    edges = sorted(gained)
    if not edges or gained[edges[-1]] <= 0:
        return 0.0
    target = p * gained[edges[-1]]
    lower, below = 0.0, 0.0
    for le in edges:
        count = gained[le]
        if count >= target and count > below:
            if math.isinf(le):
                return lower
            return lower + (le - lower) * (target - below) / (count - below)
        lower, below = le, count
    return lower


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0

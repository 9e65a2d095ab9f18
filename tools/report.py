#!/usr/bin/env python3
"""Pretty-print and diff aadedupe telemetry run reports.

A run report is the JSON artifact emitted by the telemetry layer
(telemetry::RunReport, schema "aadedupe-run-report/v1"): build metadata,
merged metrics, per-stage span times, the per-application dedup
breakdown, and the cloud transport counters.

Usage:
  report.py show <report.json>             human-readable summary
  report.py diff <a.json> <b.json>         field-by-field comparison
  report.py timeseries <report.json>       metric snapshot curves as text
  report.py trace-check <trace.json>       validate a Chrome-trace export
  report.py perf-gate <fresh.json> <baseline.json> [tolerance_pct]
                                           bench-JSON regression gate
  report.py aggregate <report.json>... [--reports <dir>]
                                           merge quantile sketches across
                                           run reports (fleet view)
  report.py aggregate --check <fleet.json> --reports <dir>
                                           re-merge and verify against a
                                           BENCH_fleet.json aggregate
  report.py flame <folded.txt>             render profiler folded stacks
  report.py healthz <port>                 fetch /healthz from a live ops
                                           server (AAD_OPS_PORT) and
                                           pretty-print the verdict; exits
                                           1 when the process is degraded
  report.py slo <port|report.json>         SLO burn-rate table, from a
                                           live ops server or the health
                                           section of a run report
  report.py --selftest                     internal check (ctest smoke)

Exit codes: 0 ok, 1 bad input / gate or check failure, 2 usage. `diff`
exits 0 when both files parse and no gated key regressed — differing
numbers are the expected output; a regression on a GATE_KEYS key is not.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

SCHEMA = "aadedupe-run-report/v1"


def load(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"report.py: cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"report.py: {path}: not a JSON object")
    schema = data.get("schema")
    if schema != SCHEMA:
        print(f"# warning: {path}: schema {schema!r}, expected {SCHEMA!r}")
    return data


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} TiB"


def fmt_value(key: str, value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)) and (
            key.endswith("_bytes") or key == "bytes"):
        return fmt_bytes(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def flatten(node, prefix="") -> dict:
    """Flatten nested objects/arrays to dotted-path -> scalar."""
    out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            out.update(flatten(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            # Label application/stage rows by their natural key when present.
            tag = str(i)
            if isinstance(value, dict):
                if "partition" in value:
                    tag = value["partition"]
                elif "stage" in value:
                    tag = f"{value['stage']}/{value.get('category', '')}"
            out.update(flatten(value, f"{prefix}[{tag}]"))
    else:
        out[prefix] = node
    return out


def show(path: str) -> int:
    data = load(path)
    build = data.get("build", {})
    print(f"run report: {path}")
    print(f"  schema  : {data.get('schema')}")
    print(f"  build   : {build.get('compiler')} {build.get('build_type')} "
          f"preset={build.get('preset')} sanitizer={build.get('sanitizer')} "
          f"threads={build.get('hardware_threads')}")

    session = data.get("session")
    if session:
        print(f"  scheme  : {session.get('scheme')} "
              f"(session {session.get('latest_session')})")
        print(f"  logical : {fmt_bytes(session.get('session_bytes', 0))} in "
              f"{session.get('session_files')} files, "
              f"{session.get('session_chunks')} chunks")
        print(f"  shipped : {fmt_bytes(session.get('session_new_bytes', 0))} "
              "of container payload")
        apps = session.get("applications", [])
        if apps:
            print("  applications:")
            print(f"    {'app':8} {'chnk':5} {'hash':8} {'bytes':>10} "
                  f"{'new':>10} {'ratio':>7}")
            for app in apps:
                ratio = app.get("dedup_ratio", 0.0)
                print(f"    {app.get('partition', '?'):8} "
                      f"{app.get('chunker', '-'):5} "
                      f"{app.get('hash', '-'):8} "
                      f"{fmt_bytes(app.get('session_bytes', 0)):>10} "
                      f"{fmt_bytes(app.get('session_new_bytes', 0)):>10} "
                      f"{ratio:>7.2f}")

    stages = data.get("stages")
    if stages:
        print("  stages (wall / self / sim seconds):")
        for row in stages:
            print(f"    {row.get('stage', '?'):14} "
                  f"{row.get('category', ''):10} "
                  f"x{row.get('count', 0):<8} "
                  f"{row.get('wall_s', 0.0):9.4f} "
                  f"{row.get('self_s', 0.0):9.4f} "
                  f"{row.get('sim_s', 0.0):9.4f}")

    cloud = data.get("cloud")
    if cloud:
        store = cloud.get("store", {})
        retry = cloud.get("retry", {})
        faults = cloud.get("faults", {})
        print(f"  cloud   : {fmt_bytes(store.get('bytes_uploaded', 0))} up in "
              f"{store.get('put_requests')} puts; "
              f"retries={retry.get('retries')} "
              f"exhausted={retry.get('exhausted')} "
              f"faults={faults.get('injected_total')}")

    report = data.get("session_report")
    if report:
        print(f"  metrics : DR={report.get('dedupe_ratio', 0.0):.2f} "
              f"window={report.get('backup_window_seconds', 0.0):.1f}s "
              f"dedupe={report.get('dedupe_seconds', 0.0):.1f}s "
              f"transfer={report.get('transfer_seconds', 0.0):.1f}s")

    health = data.get("health")
    if health:
        stalled = [name for name, st in health.get("stages", {}).items()
                   if isinstance(st, dict) and st.get("stalled")]
        line = f"  health  : {health.get('status', '?')}"
        if stalled:
            line += f" (stalled: {', '.join(stalled)})"
        print(line)
        for reason in health.get("reasons", []):
            print(f"    reason: {reason}")
        print_slo_table(health.get("slo"), indent="  ")
    return 0


def diff(path_a: str, path_b: str) -> int:
    """Field-by-field comparison, a -> b. Differing numbers are the
    expected output, with one exception: a GATE_KEYS key that regressed
    (b worse than a beyond the perf-gate tolerance) makes the diff exit
    nonzero, so `diff fresh.json baseline.json`-style CI steps fail
    loudly instead of printing a delta nobody reads."""
    flat_a = flatten(load(path_a))
    flat_b = flatten(load(path_b))
    keys = sorted(set(flat_a) | set(flat_b))
    width = max((len(k) for k in keys), default=0)
    changed = 0
    regressions = []
    for key in keys:
        if key.startswith("build."):
            continue  # environment, not results
        a, b = flat_a.get(key), flat_b.get(key)
        if a == b:
            continue
        changed += 1
        last = key.rsplit(".", 1)[-1]
        sa = "-" if a is None else fmt_value(last, a)
        sb = "-" if b is None else fmt_value(last, b)
        delta = ""
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool) and a:
            delta = f"  ({100.0 * (b - a) / a:+.1f}%)"
        print(f"{key:<{width}}  {sa} -> {sb}{delta}")
        direction = GATE_KEYS.get(last)
        if direction is None or a is None or b is None:
            continue
        if direction == "true":
            if bool(a) and not bool(b):
                regressions.append(f"{key}: true -> {b!r}")
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            # diff's orientation is old -> new, so the "fresh" side is b.
            regressed, _, detail = compare_gate_key(
                direction, float(b), float(a), 0.15)
            if regressed:
                regressions.append(f"{key}: {detail}")
    print(f"# {changed} field(s) differ "
          f"({len(keys)} compared, build.* ignored)")
    for entry in regressions:
        print(f"# gated regression: {entry}")
    return 1 if regressions else 0


def timeseries(path: str) -> int:
    """Render the RunReport "timeseries" section as aligned text columns."""
    data = load(path)
    ts = data.get("timeseries")
    if not ts:
        print(f"{path}: no timeseries section (set AAD_SNAPSHOT_INTERVAL_S "
              "or run a session long enough for periodic snapshots)")
        return 0
    times = ts.get("t_s", [])
    series = ts.get("series", {})
    if not isinstance(times, list) or not isinstance(series, dict):
        raise SystemExit(f"report.py: {path}: malformed timeseries section")
    names = sorted(series)
    print(f"timeseries: {len(times)} samples @ {ts.get('interval_s')}s")
    header = f"{'t_s':>10}" + "".join(f"  {n:>26}" for n in names)
    print(header)
    for i, t in enumerate(times):
        row = f"{t:>10.3f}"
        for name in names:
            column = series.get(name, [])
            value = column[i] if i < len(column) else 0
            row += f"  {value:>26.3f}" if isinstance(value, float) \
                else f"  {value:>26}"
        print(row)
    # Per-series summary: last value and max, the two numbers a human
    # actually scans curves for.
    for name in names:
        column = [v for v in series.get(name, [])
                  if isinstance(v, (int, float))]
        if column:
            print(f"# {name}: last={column[-1]:.3f} max={max(column):.3f}")
    return 0


def trace_check(path: str) -> int:
    """Validate that `path` is a well-formed Chrome-trace (Perfetto) file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"report.py: cannot read {path}: {exc}")

    def bad(msg: str) -> int:
        print(f"trace-check: {path}: {msg}", file=sys.stderr)
        return 1

    if not isinstance(data, dict):
        return bad("top level is not a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return bad("missing traceEvents array")

    spans = counters = metadata = 0
    tids = set()
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return bad(f"event #{i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "C", "M"):
            return bad(f"event #{i}: unsupported phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            return bad(f"event #{i}: missing name")
        if ph == "M":
            metadata += 1
            if not isinstance(ev.get("args"), dict):
                return bad(f"event #{i}: metadata event without args")
            continue
        # tid is required for spans but optional for counters: Chrome
        # counter events are per-process, and the exporter omits it.
        fields = ("ts", "pid", "tid") if ph == "X" else ("ts", "pid")
        for field in fields:
            if not isinstance(ev.get(field), (int, float)) \
                    or isinstance(ev.get(field), bool):
                return bad(f"event #{i}: missing numeric {field}")
        if ev["ts"] < 0:
            return bad(f"event #{i}: negative ts")
        if "tid" in ev:
            tids.add(ev["tid"])
        if ph == "X":
            spans += 1
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                    or dur < 0:
                return bad(f"event #{i}: X event needs dur >= 0")
        else:
            counters += 1
            args = ev.get("args")
            # An empty args dict is a counter series with no samples yet
            # (e.g. a run too short for a timeline tick) — tolerated, not
            # malformed. Values that ARE present must be numeric.
            if not isinstance(args, dict) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in args.values()):
                return bad(f"event #{i}: C event needs numeric args")
    if spans == 0:
        return bad("no X (span) events — empty trace")
    print(f"trace-check: {path}: OK ({spans} spans, {counters} counter "
          f"samples, {metadata} metadata events, {len(tids)} threads)")
    return 0


class Sketch:
    """Python mirror of telemetry::QuantileSketch (src/telemetry/sketch.*).

    Same bucket mapping (index = ceil(log_gamma v)), same bucket value
    (2*gamma^i/(gamma+1)), same rank walk — so merging run-report sketch
    JSON here reproduces the C++ merge: integer state (count, zeros,
    buckets) exactly, float state (sum, quantiles) to JSON round-trip
    precision.
    """

    MIN_INDEXABLE = 1e-12

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"sketch alpha {alpha} out of (0,1)")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self.count = 0
        self.zeros = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0
        self.buckets: dict[int, int] = {}

    @classmethod
    def from_json(cls, obj: dict) -> "Sketch":
        missing = [k for k in ("alpha", "count", "zeros", "sum", "min",
                               "max") if k not in obj]
        if missing:
            raise ValueError(
                f"sketch missing field(s): {', '.join(missing)}")
        sketch = cls(float(obj["alpha"]))
        sketch.count = int(obj["count"])
        sketch.zeros = int(obj["zeros"])
        sketch.sum = float(obj["sum"])
        sketch.min = float(obj["min"])
        sketch.max = float(obj["max"])
        idx, cnt = obj.get("idx", []), obj.get("cnt", [])
        if len(idx) != len(cnt):
            raise ValueError("sketch idx/cnt length mismatch")
        sketch.buckets = {int(i): int(n) for i, n in zip(idx, cnt)}
        return sketch

    def observe(self, value: float) -> None:
        value = max(0.0, value)
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.sum += value
        if value < self.MIN_INDEXABLE:
            self.zeros += 1
            return
        index = math.ceil(math.log(value) / math.log(self.gamma))
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Sketch") -> None:
        if self.alpha != other.alpha:
            raise ValueError(
                f"cannot merge sketches: alpha {self.alpha} vs {other.alpha}")
        if other.count == 0:
            return
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.zeros += other.zeros
        self.sum += other.sum
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def bucket_value(self, index: int) -> float:
        return 2.0 * self.gamma ** index / (self.gamma + 1.0)

    def quantile(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zeros:
            return min(max(0.0, self.min), self.max)
        cumulative = self.zeros
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                return min(max(self.bucket_value(index), self.min), self.max)
        return self.max


def split_metric_name(name: str) -> tuple[str, dict]:
    """Parse a canonical instrument name `base{k1="v1",...}` back into
    (base, labels). Values may contain escaped `\\"` and `\\\\`."""
    if "{" not in name or not name.endswith("}"):
        return name, {}
    base, _, body = name.partition("{")
    labels = {}
    i, n = 0, len(body) - 1  # strip trailing }
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq]
        if body[eq + 1] != '"':
            raise ValueError(f"malformed metric name {name!r}")
        value, j = [], eq + 2
        while body[j] != '"':
            if body[j] == "\\":
                j += 1
            value.append(body[j])
            j += 1
        labels[key] = "".join(value)
        i = j + 1
        if i < n and body[i] == ",":
            i += 1
    return base, labels


def sketch_entries(report: dict):
    """Yield (base_name, labels, Sketch) for every sketch-valued metric."""
    metrics = report.get("metrics", {})
    if not isinstance(metrics, dict):
        return
    for name, value in metrics.items():
        if isinstance(value, dict) and "alpha" in value and "idx" in value:
            base, labels = split_metric_name(name)
            yield base, labels, Sketch.from_json(value)


QUANTS = (("p50", 0.50), ("p90", 0.90), ("p95", 0.95), ("p99", 0.99))


def merge_reports(paths: list[str]):
    """Merge every sketch family across the given run reports.

    Returns (families, tenants): families maps base name -> Sketch merged
    over every label set in every report; tenants maps tenant label ->
    {base name -> Sketch} for the per-tenant table (the empty tenant ""
    collects unlabeled single-client reports).
    """
    families: dict[str, Sketch] = {}
    tenants: dict[str, dict[str, Sketch]] = {}
    for path in paths:
        report = load(path)
        try:
            for base, labels, sketch in sketch_entries(report):
                if base not in families:
                    families[base] = Sketch(sketch.alpha)
                families[base].merge(sketch)
                per = tenants.setdefault(labels.get("tenant", ""), {})
                if base not in per:
                    per[base] = Sketch(sketch.alpha)
                per[base].merge(sketch)
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed sketch is a bad input, not a crash: name the
            # file so the user knows which artifact to regenerate.
            raise SystemExit(f"report.py: {path}: malformed sketch "
                             f"metric: {exc}")
    return families, tenants


def print_sketch_table(rows: dict, indent: str = "") -> None:
    width = max((len(k) for k in rows), default=0)
    print(f"{indent}{'family':<{width}} {'count':>8} {'mean':>11} "
          f"{'p50':>11} {'p90':>11} {'p95':>11} {'p99':>11} {'max':>11}")
    for name in sorted(rows):
        s = rows[name]
        mean = s.sum / s.count if s.count else 0.0
        cells = " ".join(f"{s.quantile(q):>11.5g}" for _, q in QUANTS)
        print(f"{indent}{name:<{width}} {s.count:>8} {mean:>11.5g} "
              f"{cells} {s.max:>11.5g}")


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def aggregate_check(fleet_path: str, report_paths: list[str]) -> int:
    """Re-merge per-tenant reports and verify a BENCH_fleet.json
    aggregate: integer sketch state must match exactly, float state to
    JSON round-trip precision (the C++ merge and this one see the same
    bucket integers; only sums/extrema pass through %.12g)."""
    try:
        fleet_doc = json.loads(Path(fleet_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"report.py: cannot read {fleet_path}: {exc}")
    expected = fleet_doc.get("fleet")
    if not isinstance(expected, dict) or not expected:
        print(f"aggregate --check: {fleet_path}: no fleet section",
              file=sys.stderr)
        return 1
    families, _ = merge_reports(report_paths)
    failures = 0

    def bad(family: str, what: str) -> None:
        nonlocal failures
        failures += 1
        print(f"FAIL {family}: {what}")

    for family, obj in expected.items():
        merged = families.get(family)
        if merged is None:
            bad(family, "absent from the merged reports")
            continue
        want = Sketch.from_json(obj)
        if (want.count, want.zeros) != (merged.count, merged.zeros):
            bad(family, f"count/zeros {merged.count}/{merged.zeros} != "
                        f"{want.count}/{want.zeros}")
            continue
        if want.buckets != merged.buckets:
            bad(family, "bucket map differs (merge is not exact)")
            continue
        for field in ("sum", "min", "max"):
            if not close(getattr(want, field), getattr(merged, field)):
                bad(family, f"{field} {getattr(merged, field)!r} != "
                            f"{getattr(want, field)!r}")
        for key, q in QUANTS:
            if key in obj and not close(float(obj[key]), merged.quantile(q)):
                bad(family, f"{key} {merged.quantile(q)!r} != {obj[key]!r}")
    extra = sorted(set(families) - set(expected))
    if extra:
        bad(",".join(extra), "merged families missing from the fleet file")
    if "fleet_dr_p50" in fleet_doc and "session.dedupe_ratio" in families:
        got = families["session.dedupe_ratio"].quantile(0.50)
        if not close(float(fleet_doc["fleet_dr_p50"]), got):
            bad("fleet_dr_p50", f"{got!r} != {fleet_doc['fleet_dr_p50']!r}")
    status = "FAILED" if failures else "OK"
    print(f"aggregate --check: {len(expected)} families over "
          f"{len(report_paths)} reports: {status}")
    return 1 if failures else 0


def aggregate(argv: list[str]) -> int:
    check_path = None
    paths: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--check" and i + 1 < len(argv):
            check_path = argv[i + 1]
            i += 2
        elif argv[i] == "--reports" and i + 1 < len(argv):
            reports_dir = Path(argv[i + 1])
            if not reports_dir.is_dir():
                print(f"aggregate: --reports {reports_dir}: not a "
                      "directory", file=sys.stderr)
                return 2
            found = sorted(str(p) for p in reports_dir.glob("*.json"))
            if not found:
                print(f"aggregate: --reports {reports_dir}: no *.json "
                      "run reports in it", file=sys.stderr)
                return 2
            paths.extend(found)
            i += 2
        elif argv[i].startswith("--"):
            print(f"aggregate: unknown flag {argv[i]}", file=sys.stderr)
            return 2
        else:
            paths.append(argv[i])
            i += 1
    if not paths:
        print("aggregate: no run reports given", file=sys.stderr)
        return 2
    if check_path is not None:
        return aggregate_check(check_path, paths)
    families, tenants = merge_reports(paths)
    if not families:
        print(f"aggregate: no sketch metrics in {len(paths)} report(s)")
        return 0
    print(f"fleet aggregate over {len(paths)} report(s):")
    print_sketch_table(families, indent="  ")
    named = {t: rows for t, rows in tenants.items() if t}
    for tenant in sorted(named):
        session_rows = {base: s for base, s in named[tenant].items()
                        if base.startswith("session.")}
        if session_rows:
            print(f"  tenant {tenant}:")
            print_sketch_table(session_rows, indent="    ")
    return 0


def flame(path: str, width: int = 50) -> int:
    """Render profiler folded stacks (AAD_PROFILE_OUT) as a text table:
    per-stack share with a bar, then per-leaf-frame self share."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise SystemExit(f"report.py: cannot read {path}: {exc}")
    stacks: dict[str, int] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            print(f"flame: {path}:{lineno}: malformed folded line "
                  f"{line!r}", file=sys.stderr)
            return 1
        stacks[stack] = stacks.get(stack, 0) + int(count)
    total = sum(stacks.values())
    if total == 0:
        print(f"flame: {path}: no samples (run longer or lower "
              "AAD_PROFILE_PERIOD_US)")
        return 0
    print(f"flame: {total} samples, {len(stacks)} distinct stacks")
    for stack, count in sorted(stacks.items(), key=lambda kv: -kv[1]):
        share = count / total
        bar = "#" * max(1, round(share * width))
        print(f"  {100.0 * share:6.2f}% {count:>8}  {bar:<{width}}  {stack}")
    leaves: dict[str, int] = {}
    for stack, count in stacks.items():
        leaf = stack.rsplit(";", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + count
    print("  self time by leaf frame:")
    for leaf, count in sorted(leaves.items(), key=lambda kv: -kv[1]):
        print(f"    {100.0 * count / total:6.2f}% {count:>8}  {leaf}")
    return 0


def print_slo_table(slo_doc, indent: str = "") -> None:
    """Render a HealthMonitor slo section (live /healthz or the health
    section of a run report)."""
    if not isinstance(slo_doc, dict):
        return
    tenants = slo_doc.get("tenants", {})
    if not tenants:
        return
    print(f"{indent}slo: fast window {slo_doc.get('fast_window_s', 0):g}s / "
          f"slow {slo_doc.get('slow_window_s', 0):g}s, error budget "
          f"{slo_doc.get('error_budget', 0):g}, alert at fast burn "
          f">= {slo_doc.get('fast_burn_alert', 0):g}")
    print(f"{indent}  {'tenant':10} {'sessions':>8} {'violations':>10} "
          f"{'fast_burn':>9} {'slow_burn':>9}")
    for name in sorted(tenants):
        t = tenants[name]
        print(f"{indent}  {name:10} {t.get('sessions', 0):>8} "
              f"{t.get('violations', 0):>10} "
              f"{t.get('fast_burn', 0.0):>9.2f} "
              f"{t.get('slow_burn', 0.0):>9.2f}")


def fetch_ops_json(port: str, endpoint: str) -> tuple[int, dict]:
    """GET a JSON endpoint from a live ops server (AAD_OPS_PORT; the
    server binds loopback only). Returns (http_status, parsed_body) —
    /healthz answers 503 with a JSON body when degraded, so an HTTP
    error status is a payload, not a fetch failure."""
    import urllib.error
    import urllib.request
    url = f"http://127.0.0.1:{int(port)}{endpoint}"
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        status, body = exc.code, exc.read()
    except (OSError, ValueError) as exc:
        raise SystemExit(f"report.py: cannot fetch {url}: {exc} — is the "
                         "process running with AAD_OPS_PORT set?")
    try:
        return status, json.loads(body)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"report.py: {url}: not JSON: {exc}")


def healthz(port: str) -> int:
    """Fetch and pretty-print /healthz; exit 1 when degraded (mirrors
    the endpoint's 200/503 split so scripts can gate on it)."""
    status, doc = fetch_ops_json(port, "/healthz")
    print(f"healthz (port {int(port)}): {doc.get('status', '?')} "
          f"[HTTP {status}]")
    for reason in doc.get("reasons", []):
        print(f"  reason: {reason}")
    stages = doc.get("stages", {})
    if stages:
        print(f"  {'stage':14} {'live':>5} {'opened':>8} {'closed':>8} "
              f"{'idle_s':>9} {'deadline':>9}  stalled")
        for name, st in stages.items():
            print(f"  {name:14} {st.get('live', 0):>5} "
                  f"{st.get('opened', 0):>8} {st.get('closed', 0):>8} "
                  f"{st.get('idle_s', 0.0):>9.2f} "
                  f"{st.get('deadline_s', 0.0):>9.1f}  "
                  f"{'STALLED' if st.get('stalled') else '-'}")
    print_slo_table(doc.get("slo"), indent="  ")
    return 1 if doc.get("status") != "ok" else 0


def slo(target: str) -> int:
    """SLO burn-rate table from a live ops server (numeric port) or the
    health section of a run report (path)."""
    if target.isdigit():
        _, doc = fetch_ops_json(target, "/healthz")
        slo_doc = doc.get("slo")
    else:
        health = load(target).get("health")
        if not isinstance(health, dict):
            print(f"slo: {target}: no health section (run with "
                  "AAD_OPS_PORT or an AAD_SLO_* knob set)", file=sys.stderr)
            return 1
        slo_doc = health.get("slo")
    if not isinstance(slo_doc, dict) or not slo_doc.get("tenants"):
        print("slo: no SLO observations yet (set AAD_SLO_BACKUP_WINDOW_S "
              "or AAD_SLO_BYTES_SAVED_PER_S and run sessions)")
        return 0
    print_slo_table(slo_doc)
    return 0


# Bench-JSON keys that are meaningful across machines: ratios of two
# measurements taken on the same host, not absolute MB/s. `higher`/`lower`
# mark direction; pct keys are compared in absolute percentage points
# with a 2-point noise floor (2% telemetry overhead is the acceptance
# ceiling, so a 2-point swing is the smallest actionable regression);
# `true` keys are pass/fail booleans. One dict serves every bench file
# (BENCH_chunking.json, BENCH_index.json) — keys a file does not carry
# are skipped with a note.
GATE_KEYS = {
    # BENCH_chunking.json (fingerprinting hot path)
    "cdc_speedup_vs_reference": "higher",
    "telemetry_overhead_pct_cdc_fingerprint": "lower_pct",
    "profiler_overhead_pct_cdc_fingerprint": "lower_pct",
    "ops_overhead_pct_cdc_fingerprint": "lower_pct",
    # Batched hash engine (PR 7): best compiled SIMD rung vs the scalar
    # rung measured in the same process, and the end-to-end dynamic-path
    # chunk+fingerprint throughput vs the recorded pre-engine seed.
    "sha1_batch_speedup_vs_scalar": "higher",
    "md5_batch_speedup_vs_scalar": "higher",
    "cdc_fingerprint_speedup_vs_seed": "higher",
    # BENCH_index.json (log-structured index)
    "bloom_cold_filter_rate": "higher",
    "hot_cache_hit_rate": "higher",
    "cold_disk_reads_per_lookup": "lower",
    "restart_recovery_ok": "true",
    "rss_bounded": "true",
    # BENCH_fleet.json (fleet observability): the fleet's median dedup
    # ratio is dataset + chunking, no wall clock — byte-exact across
    # hosts given the same seed/scale.
    "fleet_dr_p50": "higher",
}

# Absolute acceptance ceilings, gated on the fresh file alone: a slowly
# drifting baseline must never ratchet the observability tax above the
# 2% budget the instrumentation was accepted under.
GATE_CEILINGS = {
    "telemetry_overhead_pct_cdc_fingerprint": 2.0,
    "profiler_overhead_pct_cdc_fingerprint": 2.0,
    # The enabled-but-idle ops plane (HealthMonitor span hooks + a
    # listening-but-unscraped OpsServer) was accepted under a 1% budget.
    "ops_overhead_pct_cdc_fingerprint": 1.0,
}


def compare_gate_key(direction: str, f: float, b: float, tol: float):
    """Direction-aware regression test shared by perf-gate and diff.
    Returns (regressed, improved, detail)."""
    if direction == "lower_pct":
        # Percentage-point deltas; lower is better.
        slack = max(abs(b) * tol, 2.0)
        return (f > b + slack, f < b - slack,
                f"{b:.2f} -> {f:.2f} points (slack {slack:.2f})")
    if direction == "lower":
        # Absolute-delta slack floor: a baseline of ~zero (the bloom
        # filter absorbing everything) must not turn any nonzero fresh
        # value into a failure.
        slack = max(abs(b) * tol, 0.02)
        return (f > b + slack, f < b - slack,
                f"{b:.4f} -> {f:.4f} (slack {slack:.4f})")
    delta = 100.0 * (f - b) / b if b else 0.0
    return (f < b * (1.0 - tol), f > b * (1.0 + tol),
            f"{b:.3f} -> {f:.3f} ({delta:+.1f}%)")


def perf_gate(fresh_path: str, base_path: str,
              tolerance_pct: float = 15.0) -> int:
    def load_bench(path: str) -> dict:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"report.py: cannot read {path}: {exc}")
        if not isinstance(data, dict):
            raise SystemExit(f"report.py: {path}: not a JSON object")
        return data

    fresh, base = load_bench(fresh_path), load_bench(base_path)
    tol = tolerance_pct / 100.0
    failures = warnings = compared = 0
    for key, direction in GATE_KEYS.items():
        if key not in fresh or key not in base:
            print(f"# perf-gate: {key}: missing "
                  f"({'fresh' if key not in fresh else 'baseline'}), skipped")
            continue
        if direction == "true":
            # Pass/fail invariants (crash recovery, RSS bound): fresh must
            # hold regardless of the baseline.
            compared += 1
            if bool(fresh[key]):
                print(f"  ok {key}: true")
            else:
                failures += 1
                print(f"FAIL {key}: expected true, got {fresh[key]!r}")
            continue
        f, b = float(fresh[key]), float(base[key])
        compared += 1
        regressed, improved, detail = compare_gate_key(direction, f, b, tol)
        ceiling = GATE_CEILINGS.get(key)
        if ceiling is not None and f > ceiling:
            failures += 1
            print(f"FAIL {key}: {f:.2f} exceeds the absolute ceiling "
                  f"{ceiling:.2f} ({detail})")
        elif regressed:
            failures += 1
            print(f"FAIL {key}: {detail}")
        elif improved:
            warnings += 1
            print(f"WARN {key}: improved beyond tolerance, baseline is "
                  f"stale: {detail}")
        else:
            print(f"  ok {key}: {detail}")
    if compared == 0:
        print("perf-gate: no comparable keys — failing", file=sys.stderr)
        return 1
    print(f"# perf-gate: {compared} compared, {failures} regression(s), "
          f"{warnings} warning(s), tolerance ±{tolerance_pct:.0f}%")
    return 1 if failures else 0


def selftest() -> int:
    a = {
        "schema": SCHEMA,
        "build": {"compiler": "x", "build_type": "Release",
                  "preset": "default", "sanitizer": "OFF",
                  "hardware_threads": 8},
        "session": {
            "scheme": "AA-Dedupe", "latest_session": 0,
            "session_bytes": 1024, "session_files": 2, "session_chunks": 3,
            "session_new_bytes": 512,
            "applications": [
                {"partition": "doc", "chunker": "cdc", "hash": "sha1",
                 "session_bytes": 1024, "session_new_bytes": 512,
                 "dedup_ratio": 2.0}],
        },
        "stages": [{"stage": "chunk", "category": "doc", "count": 1,
                    "wall_s": 0.5, "self_s": 0.5, "sim_s": 0.0}],
        "cloud": {"store": {"bytes_uploaded": 600, "put_requests": 2},
                  "retry": {"retries": 0, "exhausted": 0},
                  "faults": {"injected_total": 0}},
        "session_report": {"dedupe_ratio": 2.0,
                           "backup_window_seconds": 1.0,
                           "dedupe_seconds": 1.0, "transfer_seconds": 0.5},
    }
    b = json.loads(json.dumps(a))
    b["session"]["session_new_bytes"] = 256
    b["build"]["compiler"] = "y"  # must be ignored by diff

    import io
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout

    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp) / "a.json", Path(tmp) / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))

        out = io.StringIO()
        with redirect_stdout(out):
            assert show(str(pa)) == 0
        shown = out.getvalue()
        assert "AA-Dedupe" in shown and "chunk" in shown, shown

        out = io.StringIO()
        with redirect_stdout(out):
            assert diff(str(pa), str(pb)) == 0
        diffed = out.getvalue()
        assert "session.session_new_bytes" in diffed, diffed
        assert "-50.0%" in diffed, diffed
        assert "compiler" not in diffed, diffed
        assert "# 1 field(s) differ" in diffed, diffed

    flat = flatten(a)
    assert flat["session.applications[doc].dedup_ratio"] == 2.0
    assert flat["stages[chunk/doc].wall_s"] == 0.5

    # timeseries rendering
    ts_report = {
        "schema": SCHEMA,
        "timeseries": {"interval_s": 1.0, "t_s": [0.0, 1.0, 2.0],
                       "series": {"container.bytes": [0, 100, 250],
                                  "pipeline.queue_depth": [1, 3, 2]}},
    }
    # valid + broken Chrome traces
    good_trace = {"traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
         "args": {"name": "thread 0001"}},
        {"ph": "X", "name": "chunk", "cat": "doc", "ts": 0.0, "dur": 125.0,
         "pid": 1, "tid": 0, "args": {"self_s": 0.0001}},
        {"ph": "C", "name": "container.bytes", "ts": 10.0, "pid": 1,
         "tid": 0, "args": {"container.bytes": 4096}},
    ], "displayTimeUnit": "ms"}
    bad_trace = {"traceEvents": [{"ph": "X", "name": "chunk", "ts": 0.0,
                                  "pid": 1, "tid": 0}]}  # no dur
    # perf-gate fixtures: ok, regression, improvement
    bench_base = {"cdc_speedup_vs_reference": 4.0,
                  "telemetry_overhead_pct_cdc_fingerprint": 1.0,
                  "sha1_batch_speedup_vs_scalar": 8.0,
                  "md5_batch_speedup_vs_scalar": 4.5,
                  "cdc_fingerprint_speedup_vs_seed": 7.0}
    bench_ok = dict(bench_base, cdc_speedup_vs_reference=4.2)
    bench_bad = dict(bench_base, cdc_speedup_vs_reference=2.0)
    bench_fast = dict(bench_base, cdc_speedup_vs_reference=7.0)
    # A SIMD rung falling off the dispatch ladder (e.g. a build that lost
    # -mavx2) must trip the batch-speedup gate.
    bench_lost_simd = dict(bench_base, sha1_batch_speedup_vs_scalar=1.0,
                           cdc_fingerprint_speedup_vs_seed=2.0)
    # BENCH_index.json fixtures: the `lower` slack floor must tolerate a
    # near-zero baseline, and `true` keys gate on the fresh file alone.
    index_base = {"bloom_cold_filter_rate": 0.99,
                  "hot_cache_hit_rate": 0.97,
                  "cold_disk_reads_per_lookup": 0.0,
                  "restart_recovery_ok": True,
                  "rss_bounded": True}
    index_ok = dict(index_base, cold_disk_reads_per_lookup=0.01)
    index_bad_disk = dict(index_base, cold_disk_reads_per_lookup=0.5)
    index_bad_crash = dict(index_base, restart_recovery_ok=False)

    with tempfile.TemporaryDirectory() as tmp:
        write = lambda name, obj: (  # noqa: E731
            (Path(tmp) / name).write_text(json.dumps(obj)),
            str(Path(tmp) / name))[1]
        ts_path = write("ts.json", ts_report)
        out = io.StringIO()
        with redirect_stdout(out):
            assert timeseries(ts_path) == 0
        rendered = out.getvalue()
        assert "container.bytes" in rendered, rendered
        assert "3 samples" in rendered, rendered
        assert "last=250.000" in rendered, rendered

        out = io.StringIO()
        with redirect_stdout(out):
            assert trace_check(write("good.json", good_trace)) == 0
        assert "1 spans" in out.getvalue(), out.getvalue()
        assert trace_check(write("bad.json", bad_trace)) == 1

        pb = write("base.json", bench_base)
        out = io.StringIO()
        with redirect_stdout(out):
            assert perf_gate(write("ok.json", bench_ok), pb) == 0
            assert perf_gate(write("bad.json", bench_bad), pb) == 1
            assert perf_gate(write("fast.json", bench_fast), pb) == 0
            assert perf_gate(write("lost_simd.json", bench_lost_simd),
                             pb) == 1
        gated = out.getvalue()
        assert "FAIL cdc_speedup_vs_reference" in gated, gated
        assert "WARN cdc_speedup_vs_reference" in gated, gated
        assert "FAIL sha1_batch_speedup_vs_scalar" in gated, gated
        assert "FAIL cdc_fingerprint_speedup_vs_seed" in gated, gated

        ib = write("index_base.json", index_base)
        out = io.StringIO()
        with redirect_stdout(out):
            assert perf_gate(write("index_ok.json", index_ok), ib) == 0
            assert perf_gate(write("index_bad_disk.json", index_bad_disk),
                             ib) == 1
            assert perf_gate(write("index_bad_crash.json", index_bad_crash),
                             ib) == 1
        gated = out.getvalue()
        assert "FAIL cold_disk_reads_per_lookup" in gated, gated
        assert "FAIL restart_recovery_ok" in gated, gated

        # The absolute overhead ceiling gates the fresh file even when the
        # baseline already sits above it (no ratcheting past 2%).
        over = {"telemetry_overhead_pct_cdc_fingerprint": 3.0}
        out = io.StringIO()
        with redirect_stdout(out):
            assert perf_gate(write("over.json", over),
                             write("over_base.json", over)) == 1
        assert "absolute ceiling" in out.getvalue(), out.getvalue()

        # diff exits nonzero on a gated regression, zero on plain churn.
        out = io.StringIO()
        with redirect_stdout(out):
            assert diff(write("dbase.json", bench_base),
                        write("dbad.json", bench_bad)) == 1
            assert diff(write("dbase2.json", bench_base),
                        write("dok.json", bench_ok)) == 0
        assert "# gated regression: cdc_speedup_vs_reference" \
            in out.getvalue(), out.getvalue()

        # C events with an empty args dict (counter series with no
        # samples) are tolerated.
        empty_counter = {"traceEvents": [
            {"ph": "X", "name": "chunk", "ts": 0.0, "dur": 1.0,
             "pid": 1, "tid": 0},
            {"ph": "C", "name": "container.bytes", "ts": 0.0, "pid": 1,
             "args": {}},
        ]}
        out = io.StringIO()
        with redirect_stdout(out):
            assert trace_check(write("empty_c.json", empty_counter)) == 0

    # Sketch mirror: relative accuracy, exactness of merge, canonical-name
    # parsing — the Python half of the C++ <-> Python aggregate contract.
    import random
    rng = random.Random(20110926)
    values = [rng.lognormvariate(0.0, 2.0) for _ in range(4000)] + [0.0] * 7
    whole, left, right = Sketch(), Sketch(), Sketch()
    for i, v in enumerate(values):
        whole.observe(v)
        (left if i % 2 else right).observe(v)
    left.merge(right)
    assert left.count == whole.count and left.buckets == whole.buckets
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.95, 0.99):
        exact = ordered[max(1, math.ceil(q * len(ordered))) - 1]
        got = whole.quantile(q)
        assert abs(got - exact) <= 0.0101 * exact + 1e-12, (q, got, exact)
        assert abs(left.quantile(q) - got) <= 1e-12 * max(1.0, got)
    base_name, labels = split_metric_name(
        'session.dedupe_ratio{scheme="AA-Dedupe",tenant="t00"}')
    assert base_name == "session.dedupe_ratio"
    assert labels == {"scheme": "AA-Dedupe", "tenant": "t00"}
    assert split_metric_name("plain.counter") == ("plain.counter", {})
    esc_base, esc = split_metric_name('m{k="a\\"b\\\\c"}')
    assert esc_base == "m" and esc == {"k": 'a"b\\c'}, esc

    def sketch_json(sketch: Sketch) -> dict:
        idx = sorted(sketch.buckets)
        return {"alpha": sketch.alpha, "count": sketch.count,
                "sum": sketch.sum, "min": sketch.min, "max": sketch.max,
                "mean": sketch.sum / sketch.count if sketch.count else 0.0,
                "p50": sketch.quantile(0.5), "p90": sketch.quantile(0.9),
                "p95": sketch.quantile(0.95), "p99": sketch.quantile(0.99),
                "zeros": sketch.zeros, "idx": idx,
                "cnt": [sketch.buckets[i] for i in idx]}

    # aggregate + --check round trip over two synthetic tenant reports.
    t0, t1 = Sketch(), Sketch()
    for v in (2.0, 4.0, 8.0):
        t0.observe(v)
    for v in (1.0, 16.0):
        t1.observe(v)
    fleet_sketch = Sketch()
    fleet_sketch.merge(t0)
    fleet_sketch.merge(t1)
    report0 = {"schema": SCHEMA, "metrics": {
        'session.dedupe_ratio{scheme="AA-Dedupe",tenant="t00"}':
            sketch_json(t0)}}
    report1 = {"schema": SCHEMA, "metrics": {
        'session.dedupe_ratio{scheme="AA-Dedupe",tenant="t01"}':
            sketch_json(t1)}}
    fleet_doc = {"benchmark": "fleet observability",
                 "fleet": {"session.dedupe_ratio": sketch_json(fleet_sketch)},
                 "fleet_dr_p50": fleet_sketch.quantile(0.5)}
    bad_fleet = json.loads(json.dumps(fleet_doc))
    bad_fleet["fleet"]["session.dedupe_ratio"]["cnt"][0] += 1

    with tempfile.TemporaryDirectory() as tmp:
        write = lambda name, obj: (  # noqa: E731
            (Path(tmp) / name).write_text(json.dumps(obj)),
            str(Path(tmp) / name))[1]
        reports_dir = Path(tmp) / "reports"
        reports_dir.mkdir()
        r0 = write("reports/t00.json", report0)
        r1 = write("reports/t01.json", report1)
        fp = write("fleet.json", fleet_doc)
        out = io.StringIO()
        with redirect_stdout(out):
            assert aggregate([r0, r1]) == 0
        table = out.getvalue()
        assert "session.dedupe_ratio" in table, table
        assert "tenant t01" in table, table
        out = io.StringIO()
        with redirect_stdout(out):
            assert aggregate(["--check", fp, "--reports",
                              str(reports_dir)]) == 0
            assert aggregate(["--check", write("bad_fleet.json", bad_fleet),
                              r0, r1]) == 1
        assert "bucket map differs" in out.getvalue(), out.getvalue()

        folded = "chunk;hash@doc 40\nchunk 40\nuntraced 20\n"
        (Path(tmp) / "prof.folded").write_text(folded)
        out = io.StringIO()
        with redirect_stdout(out):
            assert flame(str(Path(tmp) / "prof.folded")) == 0
        flamed = out.getvalue()
        assert "100 samples" in flamed, flamed
        assert "40.00%" in flamed and "hash@doc" in flamed, flamed

        # Empty folded input degrades to a message, not a traceback.
        (Path(tmp) / "empty.folded").write_text("")
        out = io.StringIO()
        with redirect_stdout(out):
            assert flame(str(Path(tmp) / "empty.folded")) == 0
        assert "no samples" in out.getvalue(), out.getvalue()

        # A malformed sketch (missing "count") exits with the file name,
        # not a KeyError traceback.
        broken = json.loads(json.dumps(report0))
        key = next(iter(broken["metrics"]))
        del broken["metrics"][key]["count"]
        bad_path = write("broken.json", broken)
        try:
            aggregate([bad_path])
            raise AssertionError("malformed sketch did not exit")
        except SystemExit as exc:
            assert "broken.json" in str(exc) and "count" in str(exc), exc

        # --reports on a missing/empty directory names the directory.
        err = io.StringIO()
        with redirect_stderr(err):
            assert aggregate(["--reports", str(Path(tmp) / "nodir")]) == 2
        assert "nodir" in err.getvalue(), err.getvalue()
        (Path(tmp) / "emptydir").mkdir()
        err = io.StringIO()
        with redirect_stderr(err):
            assert aggregate(["--reports", str(Path(tmp) / "emptydir")]) == 2
        assert "emptydir" in err.getvalue(), err.getvalue()

        # show renders the health section; slo reads it from a report.
        health_report = {
            "schema": SCHEMA,
            "build": {"compiler": "x", "build_type": "Release"},
            "health": {
                "status": "degraded",
                "reasons": ["stage upload stalled"],
                "stages": {"upload": {"live": 1, "opened": 3, "closed": 2,
                                      "stalled": True, "idle_s": 45.0,
                                      "deadline_s": 30.0}},
                "slo": {"fast_window_s": 300, "slow_window_s": 3600,
                        "error_budget": 0.1, "fast_burn_alert": 2.0,
                        "tenants": {"default": {
                            "backup_window_s": 30.0,
                            "bytes_saved_per_s": 0.0, "sessions": 10,
                            "violations": 4, "fast_burn": 4.0,
                            "slow_burn": 4.0, "fast_n": 10,
                            "slow_n": 10}}}}}
        hp = write("health_report.json", health_report)
        out = io.StringIO()
        with redirect_stdout(out):
            assert show(hp) == 0
        shown = out.getvalue()
        assert "degraded" in shown and "stalled: upload" in shown, shown
        assert "fast_burn" in shown, shown
        out = io.StringIO()
        with redirect_stdout(out):
            assert slo(hp) == 0
        assert "4.00" in out.getvalue(), out.getvalue()
        # A report without a health section is a clear error, not silence.
        err = io.StringIO()
        with redirect_stderr(err):
            assert slo(r0) == 1
        assert "no health section" in err.getvalue(), err.getvalue()

    print("report.py selftest: OK")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) >= 1 and argv[0] == "--selftest":
        return selftest()
    if len(argv) == 2 and argv[0] == "show":
        return show(argv[1])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    if len(argv) == 2 and argv[0] == "timeseries":
        return timeseries(argv[1])
    if len(argv) == 2 and argv[0] == "trace-check":
        return trace_check(argv[1])
    if argv and argv[0] == "perf-gate" and len(argv) in (3, 4):
        tolerance = float(argv[3]) if len(argv) == 4 else 15.0
        return perf_gate(argv[1], argv[2], tolerance)
    if len(argv) >= 2 and argv[0] == "aggregate":
        return aggregate(argv[1:])
    if len(argv) == 2 and argv[0] == "flame":
        return flame(argv[1])
    if len(argv) == 2 and argv[0] == "healthz":
        return healthz(argv[1])
    if len(argv) == 2 and argv[0] == "slo":
        return slo(argv[1])
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

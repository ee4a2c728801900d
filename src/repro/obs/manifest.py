"""Run manifests: the structured JSON record written next to outputs.

A manifest pins down *what produced a result*: the full configuration
and its content hash, the git revision of the working tree, the seed,
per-layer simulated statistics, and host timing — enough to re-run the
exact experiment and to ``ncprof diff`` two runs across commits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import time

from repro.errors import SchemaMismatch

MANIFEST_KIND = "neurocube-manifest"
#: Current schema: v2 adds the optional ``attribution`` (per-layer
#: bottleneck verdicts) and ``phases`` (host wall-clock breakdown)
#: blocks.  Readers tolerate every version in
#: :data:`SUPPORTED_MANIFEST_VERSIONS` — all v2 additions are optional
#: keys, so v1 manifests read (and diff) cleanly.
MANIFEST_VERSION = 2
SUPPORTED_MANIFEST_VERSIONS = (1, 2)


def config_to_dict(config) -> dict:
    """A :class:`~repro.core.NeurocubeConfig` as plain JSON data."""
    return _plain(dataclasses.asdict(config))


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def config_digest(config) -> str:
    """Content hash of a configuration (stable across processes).

    Hashes the canonical JSON of the config's field tree, so two configs
    compare equal iff every architectural parameter matches — the
    ``ncprof diff`` guard against comparing apples to oranges.
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def git_revision(cwd: str | None = None) -> str | None:
    """The working tree's HEAD revision, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _layer_entry(stats) -> dict:
    """One per-layer manifest row from a LayerStats-like object."""
    if dataclasses.is_dataclass(stats) and not isinstance(stats, type):
        return _plain(dataclasses.asdict(stats))
    return _plain(dict(stats))


def build_manifest(label: str, *, config=None, layers=(), seed=None,
                   host_seconds: float = 0.0, trace=None,
                   extra: dict | None = None, attribution=(),
                   phases: dict | None = None) -> dict:
    """Assemble a manifest dict.

    Args:
        label: run name (experiment id, network name, ...).
        config: the :class:`NeurocubeConfig` the run used (None when the
            run never touched the cycle simulator).
        layers: per-layer stats objects (``LayerStats`` or dicts).
        seed: the run's RNG seed, if any.
        host_seconds: wall-clock host time of the simulation.
        trace: optional :class:`~repro.obs.tracer.Trace` whose summary
            (event counts, latency) is embedded.
        extra: free-form additional fields, stored under ``"extra"``.
        attribution: per-layer
            :class:`~repro.obs.attribution.LayerAttribution` verdicts
            (or pre-serialised dicts), embedded under ``"attribution"``
            (v2).
        phases: host wall-clock phase breakdown (phase name ->
            seconds), embedded under ``"phases"`` (v2).
    """
    layer_rows = [_layer_entry(layer) for layer in layers]
    total_cycles = sum(float(row.get("cycles", 0)) for row in layer_rows)
    manifest: dict = {
        "kind": MANIFEST_KIND,
        "version": MANIFEST_VERSION,
        "label": label,
        "created_unix": time.time(),
        "git_rev": git_revision(),
        "seed": seed,
        "config": None if config is None else config_to_dict(config),
        "config_hash": None if config is None else config_digest(config),
        "host": {"python": platform.python_version(),
                 "platform": platform.platform()},
        "layers": layer_rows,
        "totals": {
            "layers": len(layer_rows),
            "cycles": total_cycles,
            "packets": sum(float(row.get("packets", 0))
                           for row in layer_rows),
            "host_seconds": host_seconds,
            "simulated_cycles_per_second": (
                total_cycles / host_seconds if host_seconds > 0 else 0.0),
        },
    }
    if trace is not None:
        manifest["trace_summary"] = {
            "cycles": trace.cycles,
            "events": trace.kind_counts(),
            "dropped_events": trace.dropped_events,
            "mean_packet_latency": trace.latency.mean,
            "p90_packet_latency": trace.latency.percentile(0.90),
        }
    if attribution:
        manifest["attribution"] = [
            entry.to_dict() if hasattr(entry, "to_dict")
            else _plain(dict(entry))
            for entry in attribution]
    if phases:
        manifest["phases"] = _plain(dict(phases))
    if extra:
        manifest["extra"] = _plain(extra)
    return manifest


def manifest_from_context(label: str, ctx, extra=None,
                          trace=None) -> dict:
    """Build a manifest from a finished run context's run log.

    ``ctx`` is a :class:`repro.core.context.RunContext`.  When it
    recorded any runs, per-layer bottleneck attribution is computed and
    embedded — the manifest carries the verdicts that explain its own
    numbers.  The context's host-phase seconds go under ``"phases"``.
    ``trace`` is the context's merged trace when the caller already
    built it (to write it beside the manifest); None builds it here.
    """
    layers = [run.to_stats() for run in ctx.runs]
    if trace is None and ctx.runs:
        trace = ctx.merged_trace()
    attribution = ()
    if layers:
        # Imported lazily: attribution builds on repro.core.analytic,
        # which sits above this module in the layering.
        from repro.obs.attribution import attribute_layers

        attribution = attribute_layers(
            layers, [run.descriptor for run in ctx.runs], ctx.config)
    return build_manifest(label, config=ctx.config, layers=layers,
                          host_seconds=ctx.total_host_seconds,
                          trace=trace, extra=extra,
                          attribution=attribution, phases=ctx.phases)


def write_manifest(manifest: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")


def load_manifest(path: str) -> dict:
    """Load and validate one manifest.

    Raises :class:`ValueError` when the file is not a manifest at all
    (not JSON, not an object, or the wrong ``kind``), and
    :class:`~repro.errors.SchemaMismatch` when it *is* one but declares
    a schema version this build cannot read — the distinction lets
    ``ncprof diff`` explain "re-record with this checkout" instead of a
    KeyError deep in the diff.
    """
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not JSON: {error}") from error
    if not isinstance(data, dict) or data.get("kind") != MANIFEST_KIND:
        raise ValueError(f"{path} is not a neurocube manifest")
    version = data.get("version")
    if version not in SUPPORTED_MANIFEST_VERSIONS:
        raise SchemaMismatch(
            f"{path} has manifest schema version {version!r}; this "
            f"build reads {SUPPORTED_MANIFEST_VERSIONS}")
    return data


def diff_manifests(a: dict, b: dict) -> str:
    """Human-readable comparison of two manifests.

    Reports config-hash and revision provenance, per-layer cycle and
    packet deltas (matched by layer name), and total deltas.
    """
    lines = [f"manifest diff: {a.get('label')} -> {b.get('label')}"]
    ver_a, ver_b = a.get("version"), b.get("version")
    if ver_a != ver_b:
        # Cross-version diffs are supported (every field below reads
        # with .get defaults); the note explains why one side may lack
        # v2-only blocks like attribution or phases.
        lines.append(f"  schema: v{ver_a} vs v{ver_b} "
                     f"(fields absent in the older schema are skipped)")
    hash_a, hash_b = a.get("config_hash"), b.get("config_hash")
    if hash_a != hash_b:
        lines.append(f"  CONFIG MISMATCH: {hash_a} vs {hash_b} — "
                     f"deltas compare different architectures")
    else:
        lines.append(f"  config: {hash_a} (identical)")
    lines.append(f"  git: {a.get('git_rev')} -> {b.get('git_rev')}")
    rows_a = {row.get("name"): row for row in a.get("layers", [])}
    rows_b = {row.get("name"): row for row in b.get("layers", [])}
    for name in list(rows_a) + [n for n in rows_b if n not in rows_a]:
        in_a, in_b = rows_a.get(name), rows_b.get(name)
        if in_a is None or in_b is None:
            side = "b only" if in_a is None else "a only"
            lines.append(f"  {name}: {side}")
            continue
        cyc_a, cyc_b = float(in_a.get("cycles", 0)), float(
            in_b.get("cycles", 0))
        delta = cyc_b - cyc_a
        rel = f" ({delta / cyc_a:+.1%})" if cyc_a else ""
        lines.append(
            f"  {name}: cycles {cyc_a:.0f} -> {cyc_b:.0f} "
            f"[{delta:+.0f}{rel}], packets "
            f"{float(in_a.get('packets', 0)):.0f} -> "
            f"{float(in_b.get('packets', 0)):.0f}")
    tot_a, tot_b = a.get("totals", {}), b.get("totals", {})
    cyc_a = float(tot_a.get("cycles", 0))
    cyc_b = float(tot_b.get("cycles", 0))
    delta = cyc_b - cyc_a
    rel = f" ({delta / cyc_a:+.1%})" if cyc_a else ""
    lines.append(f"  TOTAL cycles {cyc_a:.0f} -> {cyc_b:.0f}"
                 f" [{delta:+.0f}{rel}]")
    lines.append(
        f"  host {float(tot_a.get('host_seconds', 0)):.3f}s -> "
        f"{float(tot_b.get('host_seconds', 0)):.3f}s")
    return "\n".join(lines)

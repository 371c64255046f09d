#!/usr/bin/env python3
"""Digests of what `explore` produces, to show that a change keeps it.

    python3 scripts/suite_digests.py --seeds 1,7 --out digests.json
    python3 scripts/suite_digests.py --seeds 1 --workloads round-chain --out d.json
    python3 scripts/suite_digests.py --seeds 1 --compact --out d.json
    python3 scripts/suite_digests.py --compare before.json after.json

A run is one `explore` and `emit_suite`, with `incremental` on and with it
off, of:
- every job of a benchmark workload (`bench/workloads.py`, read only) at
  each seed;
- under the workload name ``bundled``, each bundled program with no
  optimization, with each single one, and with all of them.

Each run's record is the sha256 of the emitted suite's files, the
`SuiteStats`, `complete` and the `depth_trace`; `--out` writes them as one
JSON object keyed by run name, and with `--compact` each record is replaced
by the first 16 hex digits of its own sha256 (`compact`), which is what
`tests/data/suite_digests_seed1.json` holds.  `--compare A B` prints every
run whose records differ or that only one file holds, and exits 1 if there
is any; both files must be compact or both full.
The engine is imported from the `src/` beside this script, so a copy of
the script in another checkout digests that checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from defcalc import explorer, parser, smtlib, testkit  # noqa: E402


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _bench_workloads()
WORKLOADS = (*workloads.WORKLOADS, "bundled")


def _runs(workload: str, seed: int):
    """(name, program, scope, option names, external) of each run before
    the incremental split."""
    if workload == "bundled":
        settings = [("none", ())] + [(n, (n,)) for n in explorer.OPT_NAMES]
        settings.append(("all", explorer.OPT_NAMES))
        for file, scope in workloads.BUNDLED:
            program = parser.parse_or_raise((ROOT / "programs" / file).read_text(), file)
            for label, names in settings:
                yield f"bundled/{file}/{label}", program, scope, names, False
        return
    sources, jobs = workloads.build(workload, seed, ROOT / "programs")
    programs = {s.name: (parser.parse_or_raise(s.text, s.name), s.scope) for s in sources}
    for job in jobs:
        names = explorer.OPT_NAMES if job.opts == ("all",) else job.opts
        names = tuple(n for n in names if n not in job.exclude)
        yield (f"{workload}/seed{seed}/{job.name}", *programs[job.source], names,
               job.external)


def _record(suite, directory: str) -> dict:
    h = hashlib.sha256()
    for path in testkit.emit_suite(suite, directory):
        h.update(Path(path).name.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return {"suite_sha256": h.hexdigest(), "stats": dataclasses.asdict(suite.stats),
            "complete": suite.complete, "depth_trace": suite.depth_trace}


def digest(workload_names, seeds) -> dict:
    shim = ROOT / "scripts" / "smtlib_solve.py"
    out = {}
    with smtlib.ExternalSolver(f"{shlex.quote(sys.executable)} {shlex.quote(str(shim))}") \
            as backend, tempfile.TemporaryDirectory() as tmp:
        for workload in workload_names:
            for seed in seeds if workload != "bundled" else seeds[:1]:
                for name, program, scope, names, external in _runs(workload, seed):
                    for incremental in (True, False):
                        config = explorer.ExploreConfig.from_opt_names(
                            names, backend=backend if external else None,
                            incremental=incremental)
                        suite = explorer.explore(program, scope, config)
                        run = f"{name}/{'incremental' if incremental else 'whole'}"
                        out[run] = _record(suite, f"{tmp}/{len(out)}")
    return out


def compact(digests: dict) -> dict:
    """Each run's record as the first 16 hex digits of the sha256 of its JSON."""
    return {name: hashlib.sha256(json.dumps(record, sort_keys=True).encode())
            .hexdigest()[:16] for name, record in digests.items()}


def compare(a: dict, b: dict) -> list:
    """Names of the runs whose records differ or that only one side holds."""
    return sorted(n for n in a.keys() | b.keys() if a.get(n) != b.get(n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1,7", help="comma-separated workload seeds")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help=f"comma-separated, from {', '.join(WORKLOADS)}")
    ap.add_argument("--out", help="write the digests here as JSON")
    ap.add_argument("--compact", action="store_true",
                    help="write each run's record as a 16-digit hash of it")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two digest files instead")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(a, b)
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} runs differ")
        return 1 if differ else 0
    if not args.out:
        ap.error("--out is required unless --compare is given")
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        ap.error("--seeds names no seed")
    digests = digest(names, seeds)
    if args.compact:
        digests = compact(digests)
    Path(args.out).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

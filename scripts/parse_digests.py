#!/usr/bin/env python3
"""Digests of what the parser makes of a fixed corpus, to show that a change
keeps it.

    python3 scripts/parse_digests.py --out tests/data/parse_digests.json
    python3 scripts/parse_digests.py --mutations 100000 --out big.json
    python3 scripts/parse_digests.py --compare before.json after.json

The corpus is, in this order:
- ``features``, one program that uses every construct of the surface syntax;
- each bundled program, as ``bundled/<file>``;
- each source of every benchmark workload (`bench/workloads.py`, read only)
  at seeds 1 and 7 whose text no earlier input has, as
  ``<workload>/seed<n>/<source>``;
- ``--mutations`` (default 5,000) seeded edits of those texts, as
  ``mutation/<i>``: each inserts characters such as ``$ # _ / % ! < > & |``,
  a tab, ``\\x0b``, ``é ² ½ ٣`` or a piece of the same text, or deletes a few
  characters, one to three times.  The first N mutations are the same for
  every larger N.

An input's digest is the first 16 hex digits of the sha256 of the printed
program, the span of every expression node in `lang.walk` order, and the
diagnostics with their spans.  `--out` writes them as one JSON object keyed by
input name; `--compare A B` prints every input whose digests differ or that
only one file holds, and exits 1 if there is any.  The parser is imported
from the `src/` beside this script, so a copy of the script in another
checkout digests that checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from defcalc import lang, parser  # noqa: E402

FEATURES = """\
# Every construct of the surface syntax, as a base for mutations.
enum Zone { Mainland, Overseas(int) }
struct Household { income: money, kids: int, zone: Zone }
fn cap(x: int, y: int) -> int = if x > y then y else x
scope Main {
  input h: Household;
  input r: rate;
  input b: bool;
  assert h.income >= $0.00 && h.kids != 3 || not b;
  def _z: Zone = Zone::Overseas(-2);
  def k: int = match _z { Mainland => 0, Overseas n => cap(n, 4) };
  def w: int = match h.zone { Mainland | Overseas => -1, _ => 2 };
  def f: bool = default <b = true, (r < 1/2), k != w, let q = 1 in q <= k> (true :- (k = w) = b);
  def rt: rate = default <rule (b :- 25%), rule (r >= 3/2 :- -1/4)> (true :- r * 3/2 - 1 / 3);
  def t: money = let m = h.income * rt in assert(m >= $0.00, m - $1,234.56);
  def u: money = opaque bracket : money (h.income, Household { income: $5.00, kids: 1, zone: Zone::Mainland }.income);
  def e: int = default <empty, (if b then 1 else 2)> (false :- 0 - 7);
  output t;
}
"""

INSERTS = ("$", "#", "_", "/", "%", "!", "<", ">", "&", "|", "\t", "\x0b",
           "é", "²", "½", "٣", "=", "-", "(", ")", ",", ";", ":", ".", "0", "7", "x", " ", "\n")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + rng.choice(INSERTS) + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + rng.randrange(1, 6):]
        else:
            j = rng.randrange(len(text))
            text = text[:i] + text[j:j + rng.randrange(1, 20)] + text[i:]
    return text


def corpus(mutations: int) -> dict:
    """Name -> text of every input, in corpus order."""
    workloads = _bench_workloads()
    written = {"features": FEATURES}
    for file, _ in workloads.BUNDLED:
        written[f"bundled/{file}"] = (ROOT / "programs" / file).read_text()
    generated = {}
    seen = set(written.values())
    for workload in workloads.WORKLOADS:
        for seed in (1, 7):
            for src in workloads.build(workload, seed, ROOT / "programs")[0]:
                if src.text not in seen:
                    seen.add(src.text)
                    generated[f"{workload}/seed{seed}/{src.name}"] = src.text
    bases = (list(written.values()), list(generated.values()))
    rng = random.Random(1)
    mutated = {f"mutation/{i}": _mutate(rng.choice(rng.choice(bases)), rng)
               for i in range(mutations)}
    return {**written, **generated, **mutated}


def digest(text: str) -> str:
    res = parser.parse(text)
    program = res.program
    roots = [f.body for f in program.functions]
    for s in program.scopes:
        roots += [*s.assertions, *(b.expr for b in s.bindings)]
    record = (parser.print_program(program),
              [node.span for root in roots for node in lang.walk(root)],
              [(d.message, d.span) for d in res.diagnostics])
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def digests(mutations: int) -> dict:
    return {name: digest(text) for name, text in corpus(mutations).items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--mutations", type=int, default=5000,
                    help="number of mutated inputs (default 5000)")
    ap.add_argument("--out", help="write the digests here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two digest files instead")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = [n for n in {**a, **b} if a.get(n) != b.get(n)]
        for name in differ:
            print(f"differs: {name}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} inputs differ")
        return 1 if differ else 0
    if not args.out:
        ap.error("--out is required unless --compare is given")
    Path(args.out).write_text(json.dumps(digests(args.mutations), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Program generators and job lists for the benchmark workloads.

Every program is produced here as `.dfc` source text from the workload seed,
so set-up time covers parsing and validating all of them.  A job is one
`explore` of one scope under one optimization setting, followed by
`emit_suite`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BUNDLED = (
    ("fig5.dfc", "Main"),
    ("income_tax.dfc", "IncomeTax"),
    ("geo_match.dfc", "Housing"),
    ("trivial_just.dfc", "Fees"),
    ("soft_money.dfc", "Subsidy"),
    ("benefits_medium.dfc", "Benefits"),
)

# Full-size parameters, and the reduced ones the benchmark's own tests use.
SIZES = {
    "full": {"random_scopes": 300, "brackets": (7, 8, 9, 10, 11),
             "round_chain": (2, 3, 4, 5, 6),
             "smtlib_programs": ("fig5", "income_tax", "soft_money")},
    "quick": {"random_scopes": 6, "brackets": (3, 4, 5),
              "round_chain": (2, 3, 4), "smtlib_programs": ("fig5", "income_tax")},
}


@dataclass(frozen=True)
class Source:
    """One generated or bundled program, before parsing."""
    name: str
    text: str
    scope: str


@dataclass(frozen=True)
class JobSpec:
    """One explore-and-emit job over a parsed source."""
    name: str
    source: str  # Source.name
    opts: tuple  # optimization names, or ("all",) for every one
    external: bool = False  # solve through the SMT-LIB pipe
    exclude: tuple = ()  # names left out of ("all",)


def _money(cents: int) -> str:
    return f"${cents // 100:,}.{cents % 100:02d}"


# ---------------------------------------------------------------------------
# Random finite-domain scopes: up to two bools, a four-variant enum and an
# int asserted into [-8, 8], so the reference evaluator can enumerate every
# valid input.  The shape of each scope (which constructs, how deep) comes
# from a fixed stream and its contents (literals, variables, operators,
# variants) from the workload seed, so every seed gives different scopes
# with a comparable cost profile.

_VARIANTS = ("A", "B", "C", "D")
_GROUPINGS = (
    (("A",), ("B",), ("C",), ("D",)),
    (("A", "B"), ("C", "D")),
    (("A", "B", "C"), ("D",)),
)


class _ScopeGen:
    def __init__(self, shape: random.Random, values: random.Random, bools: list):
        self.shape = shape
        self.values = values
        self.bools = bools
        self.ints = ["n"]

    def lit(self) -> str:
        v = self.values.randrange(-3, 4)
        return f"({v})" if v < 0 else str(v)

    def int_expr(self, depth: int) -> str:
        shape = self.shape
        if depth <= 0 or shape.random() < 0.4:
            return self.values.choice(self.ints) if shape.random() < 0.6 else self.lit()
        kind = shape.choice(("bin", "if", "default", "match"))
        if kind == "bin":
            op = shape.choice("+-*")
            # One constant factor keeps products inside the linear fragment.
            rhs = self.lit() if op == "*" else self.int_expr(depth - 1)
            return f"({self.int_expr(depth - 1)} {op} {rhs})"
        if kind == "if":
            return (f"(if {self.bool_expr(depth - 1)} then {self.int_expr(depth - 1)}"
                    f" else {self.int_expr(depth - 1)})")
        if kind == "match":
            arms = ", ".join(f"{' | '.join(g)} => {self.int_expr(depth - 1)}"
                             for g in shape.choice(_GROUPINGS))
            return f"(match k {{ {arms} }})"
        rules = ", ".join(
            f"rule ({self.bool_expr(depth - 1)} :- {self.int_expr(depth - 1)})"
            for _ in range(shape.randrange(0, 3)))
        return (f"(default <{rules}> ({self.bool_expr(depth - 1)}"
                f" :- {self.int_expr(depth - 1)}))")

    def bool_expr(self, depth: int) -> str:
        values = self.values
        kind = self.shape.choice(("lit", "var", "cmp", "enumtest", "not", "and"))
        if kind == "var":
            return values.choice(self.bools)
        if kind == "cmp":
            op = values.choice(("=", "<", "<=", ">", ">="))
            d = min(depth - 1, 1)
            return f"({self.int_expr(d)} {op} {self.int_expr(d)})"
        if kind == "enumtest":
            return f"(k = Kind::{values.choice(_VARIANTS)})"
        if kind == "not" and depth > 0:
            return f"(not {self.bool_expr(depth - 1)})"
        if kind == "and" and depth > 0:
            op = values.choice(("&&", "||"))
            return f"({self.bool_expr(depth - 1)} {op} {self.bool_expr(depth - 1)})"
        return values.choice(("true", "false"))


def random_scope(shape: random.Random, values: random.Random) -> str:
    bools = [f"p{i}" for i in range(shape.randrange(1, 3))]
    gen = _ScopeGen(shape, values, bools)
    lines = [f"enum Kind {{ {', '.join(_VARIANTS)} }}", "scope Rand {"]
    lines += [f"  input {b}: bool;" for b in bools]
    lines += ["  input k: Kind;", "  input n: int;",
              "  assert n >= -8;", "  assert n <= 8;"]
    count = shape.randrange(1, 4)
    for i in range(count):
        lines.append(f"  def v{i}: int = {gen.int_expr(3)};")
        gen.ints.append(f"v{i}")
    lines += [f"  output v{count - 1};", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# brackets-N and round-chain-N


def brackets(n: int, offset_cents: int) -> str:
    """N rate brackets over one money and one int input; the output sums
    income * b_i, so every justification is a conjunction."""
    lines = ["scope Brackets {", "  input income: money;", "  input kids: int;"]
    for i in range(1, n + 1):
        th = _money(1_000_000 * i + offset_cents)
        lines.append(f"  def b{i}: rate = default <rule (income > {th} && "
                     f"kids >= {i % 4} :- {i + 1}%)> (true :- 0%);")
    total = " + ".join(f"income * b{i}" for i in range(1, n + 1))
    lines += [f"  def tax: money = {total};", "  output tax;", "}"]
    return "\n".join(lines) + "\n"


def round_chain(n: int, threshold_cents: int) -> str:
    """a_i = a_{i-1} * 3/7 over money (a cent rounding per step), then one
    `if` on a_N: a single deep query for the linear core."""
    lines = ["scope Chain {", "  input x: money;", "  def a0: money = x;"]
    lines += [f"  def a{i}: money = a{i - 1} * 3/7;" for i in range(1, n + 1)]
    lines += [f"  def out: int = if a{n} > {_money(threshold_cents)} then 1 else 0;",
              "  output out;", "}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads


def _bundled(programs_dir) -> list:
    return [Source(f.removesuffix(".dfc"), (programs_dir / f).read_text(), scope)
            for f, scope in BUNDLED]


def build(workload: str, seed: int, programs_dir, size: str = "full") -> tuple:
    """(sources, jobs) for a workload; the same seed gives the same lists."""
    rng = random.Random(seed)
    sz = SIZES[size]
    sources: list = []
    jobs: list = []
    if workload == "regulation-mix":
        sources = _bundled(programs_dir)
        shape = random.Random(0)
        sources += [Source(f"rand{i:03d}", random_scope(shape, rng), "Rand")
                    for i in range(sz["random_scopes"])]
        for src in sources:
            jobs.append(JobSpec(f"{src.name}/none", src.name, ()))
            if src.scope == "Rand":
                # early-error cycles on some random scopes until the
                # iteration budget runs out, so random scopes leave it out.
                jobs.append(JobSpec(f"{src.name}/all-but-early-error", src.name,
                                    ("all",), exclude=("early-error",)))
            else:
                jobs.append(JobSpec(f"{src.name}/all", src.name, ("all",)))
    elif workload == "brackets":
        offset = rng.randrange(0, 100_000)
        for n in sz["brackets"]:
            sources.append(Source(f"brackets-{n}", brackets(n, offset), "Brackets"))
            jobs.append(JobSpec(f"brackets-{n}", f"brackets-{n}", ()))
    elif workload == "round-chain":
        # The threshold moves the linear core's cost by a third, so it is
        # fixed and the seed only rotates the job order.
        sizes = sz["round_chain"]
        k = rng.randrange(len(sizes))
        for n in sizes[k:] + sizes[:k]:
            sources.append(Source(f"round-chain-{n}", round_chain(n, 100_000), "Chain"))
            jobs.append(JobSpec(f"round-chain-{n}", f"round-chain-{n}", ()))
    elif workload == "smtlib-pipe":
        # Three small programs, so that each job runs several times in a
        # run; the seed only rotates the job order.
        small = [s for s in _bundled(programs_dir) if s.name in sz["smtlib_programs"]]
        k = rng.randrange(len(small))
        sources = small[k:] + small[:k]
        for src in sources:
            jobs.append(JobSpec(f"{src.name}/none", src.name, (), external=True))
            jobs.append(JobSpec(f"{src.name}/soft", src.name, ("soft",), external=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return sources, jobs


WORKLOADS = ("regulation-mix", "brackets", "round-chain", "smtlib-pipe")

"""Command-line workbench: tables, identity checks, structure reports, counting,
the verification suite, and replayable demos.

Exit codes: 0 success; 1 assertion failure (a failing asserted suite check or
demo golden); 2 usage error; 3 budget exceeded. The refusal policy lives in
one place, ``_Command.invoke``, which every command runs through: a
``CarrierError`` from the library exits 2 with the command's usage, and a
``BudgetExceeded`` exits 3 with a JSON diagnostic on stderr. The environment
variable GGL_BUDGET sets the one work budget (default 10^8) that every up-front
estimate is checked against before its work starts: exhaustive and subset
scans (m^vars), the Cayley table (n^2), the power-set sweeps (n*2^n; where
they do not fit, ``structure`` takes the generated closures), the generated
closures, whole-groupoid normality (n^3) and the pair tests of ``count``.
"""

from __future__ import annotations

import json
import re
import sys
import time

import click

from . import demos as demos_mod
from .carrier import Carrier, CarrierError, parse_carrier, parse_param_component
from .groupoid import BudgetExceeded, Groupoid, build, cayley_table
from .identities import (
    CheckMode,
    DEFAULT_TRIALS,
    IdentityId,
    check_alternative,
    check_identity,
)
from .shape import Shape, parse_shape
from .structure import analyze
from .theorems import CHECKS, COUNT_CLASSES, SuiteConfig, count_class, run_suite

_IDENTITY_CHOICES = [i.value for i in IdentityId] + ["alternative"]


def _parse_pair(carrier: Carrier, text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"--pair must be T,U (got {text!r})")
    out = []
    for part in parts:
        part = part.strip()
        out.append((parse_param_component(carrier, part), part.endswith("I")))
    return out[0][0], out[1][0], out[0][1], out[1][1]


def _make_groupoid(carrier_token: str, shape_token: str, pair_text: str) -> Groupoid:
    carrier, shape = parse_carrier(carrier_token), parse_shape(shape_token)
    t, u, ti, ui = _parse_pair(carrier, pair_text)
    return build(carrier, shape, t, u, t_indeterminate=ti, u_indeterminate=ui)


def _parse_mode(text: str):
    """auto | lifted | exhaustive | sampled[:TRIALS[:SEED]] -> (mode, trials, seed)."""
    parts = text.split(":")
    name = parts[0]
    trials, seed = DEFAULT_TRIALS, 0
    if name == "sampled":
        if len(parts) > 3:
            raise click.UsageError(f"--mode sampled takes at most sampled:TRIALS:SEED (got {text!r})")
        try:
            if len(parts) >= 2:
                trials = int(parts[1])
            if len(parts) == 3:
                seed = int(parts[2])
        except ValueError:
            raise click.UsageError(f"--mode sampled needs integer trials/seed (got {text!r})")
        return CheckMode.SAMPLED, trials, seed
    if len(parts) != 1:
        raise click.UsageError(f"only sampled mode takes arguments (got {text!r})")
    try:
        return CheckMode(name), trials, seed
    except ValueError:
        raise click.UsageError(f"unknown mode {name!r} (auto, lifted, exhaustive, sampled:N:SEED)")


class _Command(click.Command):
    """A command whose library refusals exit 2 (``CarrierError``, as a usage
    error of this command) or 3 (``BudgetExceeded``, as JSON on stderr)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except CarrierError as e:
            raise click.UsageError(str(e), ctx)
        except BudgetExceeded as e:
            click.echo(json.dumps({"error": "budget-exceeded", "detail": str(e)}), err=True)
            sys.exit(3)


class _Group(click.Group):
    command_class = _Command


def _timing_footer(start: float, no_timing: bool) -> None:
    # Diagnostics go to stderr so stdout stays machine-parseable (JSON/TSV).
    if not no_timing:
        click.echo(f"# elapsed {time.perf_counter() - start:.3f}s", err=True)


@click.group(cls=_Group)
def main() -> None:
    """Build, check, and survey finite two-parameter groupoids."""


@main.command()
@click.option("--carrier", "carrier_token", required=True, help="zn:N, zni:N, nzn:N, o(...)")
@click.option("--shape", "shape_token", default="scalar", show_default=True)
@click.option("--pair", "pair_text", required=True, help="T,U with optional I suffix per component")
@click.option("--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv", show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=256, show_default=True, help="largest order to tabulate")
def table(carrier_token: str, shape_token: str, pair_text: str, fmt: str, cap: int) -> None:
    """Emit the full multiplication table."""
    g = _make_groupoid(carrier_token, shape_token, pair_text)
    t = cayley_table(g, cap)
    if fmt == "tsv":
        click.echo(t.to_tsv(), nl=False)
    else:
        click.echo(t.to_json())


@main.command()
@click.option("--carrier", "carrier_token", required=True)
@click.option("--shape", "shape_token", default="scalar", show_default=True)
@click.option("--pair", "pair_text", required=True)
@click.option(
    "--identity",
    "identity_name",
    type=click.Choice(_IDENTITY_CHOICES),
    required=True,
)
@click.option("--mode", "mode_text", default="auto", show_default=True, help="auto | lifted | exhaustive | sampled:N:SEED")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text", show_default=True)
@click.option("--no-timing", is_flag=True, help="suppress the timing footer")
def check(
    carrier_token: str,
    shape_token: str,
    pair_text: str,
    identity_name: str,
    mode_text: str,
    fmt: str,
    no_timing: bool,
) -> None:
    """Check one identity on one groupoid."""
    start = time.perf_counter()
    g = _make_groupoid(carrier_token, shape_token, pair_text)
    mode, trials, seed = _parse_mode(mode_text)
    if identity_name == "alternative":
        verdicts = list(check_alternative(g, mode, trials=trials, seed=seed))
    else:
        verdicts = [check_identity(g, IdentityId(identity_name), mode, trials=trials, seed=seed)]
    if fmt == "json":
        payload = verdicts[0].to_json() if len(verdicts) == 1 else {
            "combined": verdicts[0].to_json(),
            "left": verdicts[1].to_json(),
            "right": verdicts[2].to_json(),
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        for v in verdicts:
            line = f"{v.identity}: {v.status} [{v.method}]"
            if v.witness_labels:
                line += "  witness (" + ", ".join(v.witness_labels) + ")"
            if v.trials is not None:
                line += f"  trials={v.trials} seed={v.seed}"
            click.echo(line)
    _timing_footer(start, no_timing)


@main.command()
@click.option("--carrier", "carrier_token", required=True)
@click.option("--shape", "shape_token", default="scalar", show_default=True)
@click.option("--pair", "pair_text", required=True)
@click.option("--no-timing", is_flag=True)
def structure(carrier_token: str, shape_token: str, pair_text: str, no_timing: bool) -> None:
    """Emit the full structural survey as JSON."""
    start = time.perf_counter()
    g = _make_groupoid(carrier_token, shape_token, pair_text)
    report = analyze(g)
    click.echo(json.dumps(report.to_json(), indent=2))
    _timing_footer(start, no_timing)


_RANGE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\d+)\.\.(\d+)$")


def _takes_range(check_id: str, key: str) -> bool:
    """A check's tuple defaults are its (lo, hi) ranges of moduli."""
    return isinstance(CHECKS[check_id].defaults.get(key), tuple)


# every check's range keys, in declaration order
_RANGE_KEYS = list(dict.fromkeys(key for cid, check in CHECKS.items() for key in check.defaults if _takes_range(cid, key)))


@main.command()
@click.option("--suite", default="default", show_default=True)
@click.option("--only", "only_text", default=None, help="comma-separated check ids, each once (e.g. T1,T7)")
@click.option(
    "--range",
    "range_texts",
    multiple=True,
    help="override a range of moduli, e.g. n=3..30 (repeatable, once per key); KEY is a range parameter "
    f"of a selected check ({', '.join(_RANGE_KEYS[:-1])} or {_RANGE_KEYS[-1]}) and 2 <= LO <= HI",
)
@click.option(
    "--seed",
    type=int,
    default=0,
    show_default=True,
    help="recorded only: echoed in the report config; no check draws from it",
)
@click.option("--no-timing", is_flag=True)
def verify(
    suite: str, only_text: str | None, range_texts: tuple[str, ...], seed: int, no_timing: bool
) -> None:
    """Run the verification suite; exit 0 iff every asserted check passes."""
    if suite != "default":
        raise click.UsageError(f"unknown suite {suite!r} (only 'default' exists)")
    ids: tuple[str, ...] | None = None
    if only_text is not None:
        ids = tuple(s.strip() for s in only_text.split(",") if s.strip())
        if not ids:
            raise click.UsageError(f"--only names no check id (got {only_text!r})")
        unknown = [i for i in ids if i not in CHECKS]
        if unknown:
            raise click.UsageError(f"unknown check ids: {', '.join(unknown)}")
        repeated = sorted({i for i in ids if ids.count(i) > 1}, key=ids.index)
        if repeated:
            raise click.UsageError(f"--only {', '.join(repeated)}: given more than once")
    selected = ids if ids is not None else tuple(CHECKS)
    ranges = []
    for text in range_texts:
        m = _RANGE_RE.match(text.strip())
        if not m:
            raise click.UsageError(f"--range must look like n=3..30 (got {text!r})")
        key, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        if not any(_takes_range(check_id, key) for check_id in selected):
            raise click.UsageError(f"--range {key}: no selected check takes {key} as a range of moduli")
        if not 2 <= lo <= hi:
            raise click.UsageError(f"--range {key}={lo}..{hi}: a range of moduli needs 2 <= LO <= HI")
        if any(key == seen for seen, _, _ in ranges):
            raise click.UsageError(f"--range {key}: given more than once")
        ranges.append((key, lo, hi))
    overrides: dict[str, dict] = {}
    for check_id in selected:
        params = {key: (lo, hi) for key, lo, hi in ranges if _takes_range(check_id, key)}
        if params:
            overrides[check_id] = params
    config = SuiteConfig(checks=ids, overrides=overrides, seed=seed)
    report = run_suite(config)
    click.echo(json.dumps(report.to_json(include_timing=not no_timing), indent=2))
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--carrier", "carrier_token", required=True)
@click.option(
    "--class",
    "class_token",
    type=click.Choice([kind.replace("_", "-") for kind in COUNT_CLASSES]),
    required=True,
)
@click.option("--equal-pairs", is_flag=True, help="include equal pairs (idempotent-pairs only)")
def count(carrier_token: str, class_token: str, equal_pairs: bool) -> None:
    """Count a class of parameter pairs; prints the integer, then provenance."""
    carrier = parse_carrier(carrier_token)
    click.echo(str(count_class(carrier, class_token.replace("-", "_"), equal_pairs_included=equal_pairs)))
    suffix = " equal-pairs-included" if equal_pairs else ""
    click.echo(f"# {carrier.token()} {class_token}{suffix}")


@main.command()
@click.option("--example", "example_id", default=None)
@click.option("--list", "list_flag", is_flag=True, help="list the registered demos")
def demo(example_id: str | None, list_flag: bool) -> None:
    """Replay a named worked example against its embedded expected values."""
    if list_flag or example_id is None:
        for demo_id, title in demos_mod.list_demos():
            click.echo(f"{demo_id}\t{title}")
        return
    result = demos_mod.run_demo(example_id)
    click.echo(f"[{result.demo_id}] {result.title}")
    for line in result.lines:
        click.echo(line)
    if not result.ok:
        for failure in result.failures:
            click.echo(f"FAILED: {failure}")
        sys.exit(1)


if __name__ == "__main__":
    main()

"""Command-line entry point.

Exit codes: 0 when every requested check passes, 1 on a check failure (the
witness is printed), 2 on malformed input (an unreadable chain spec or an
unwritable --json path included) or a model too large for the atom budget
or for int64, 3 on an internal error, whose traceback is printed.
Every command builds its model or representation before any check runs,
and the build refuses the budget, int64 and a table that breaks the state,
so a refused input runs no check.  Input is validated where it is loaded and
refused as InputError there, so an error raised inside the library is never
reported as malformed input.  Default output carries no wall-clock data, so
identical inputs produce byte-identical output; timing fields appear only
behind --timing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import checks as chk
from . import dilation as dil
from . import monoid as mon
from . import rep as rp
from .rationals import format_rational


class InputError(Exception):
    pass


@contextmanager
def _refused_as_input():
    """Report a ValueError raised while input is validated as malformed
    input; the calls it wraps raise it for nothing else."""
    try:
        yield
    except ValueError as e:
        raise InputError(str(e)) from None


def _load_chainspec(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read chain spec {path}: {e}") from None
    try:
        return dil.ChainSpec.from_dict(obj), obj
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise InputError(f"bad chain spec {path}: {e}") from None


def _require_depth(depth: int, least: int, command: str):
    """Refuse a depth at which some check of the command would loop over
    nothing and pass without deciding an instance."""
    if depth < least:
        raise InputError(f"{command} needs --depth >= {least}; got {depth}")


def _write_json(path, text: str):
    """Write a --json report; a path that cannot be written is malformed
    input."""
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        raise InputError(f"cannot write --json {path}: {e}") from None


def _emit(report: chk.VerificationReport, args) -> int:
    for line in report.lines():
        print(line)
    if args.json:
        _write_json(args.json, report.to_json(include_timing=args.timing))
    return 0 if report.passed else 1


def _build_rep(spec, obj, depth, budget):
    """The representation rep-check reads: the model every command builds,
    or the one on the spec's explicit c_map/delta_map tables."""
    if "c_map" not in obj and "delta_map" not in obj:
        return dil.build_markov_dilation(spec, depth, budget=budget).rep
    try:
        noise = chk.FinSpace.from_rationals(obj["noise"])
        c_map, delta = (np.asarray(obj[key], dtype=np.int64) for key in ("c_map", "delta_map"))
    except KeyError as e:
        raise InputError(f"explicit c_map/delta_map tables need a {e} field") from None
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad noise, c_map or delta_map table: {e}") from None
    for key in ("c_map", "delta_map"):  # the int64 conversion truncates 0.9 and reads true and "1"
        if any(type(x) is not int for x in np.asarray(obj[key], dtype=object).flat):
            raise InputError(f"{key} entries must be JSON integers")
    with _refused_as_input():  # shapes, atom ranges and state preservation
        return rp.build_fplus_rep(spec.pi, noise, c_map, delta, depth, budget)


def cmd_normalize(args) -> int:
    with _refused_as_input():
        out = mon.normal_form_fplus(mon.Word.parse(args.word))
    print(out)
    return 0


def cmd_word_eq(args) -> int:
    with _refused_as_input():
        w1, w2 = mon.Word.parse(args.word1), mon.Word.parse(args.word2)
        if args.monoid == "fplus":
            equal = mon.words_equal_fplus(w1, w2)
        else:
            equal = mon.words_equal_splus(w1, w2)
    print("equal" if equal else "not equal")
    return 0 if equal else 1


def cmd_shift(args) -> int:
    with _refused_as_input():
        out = mon.shift_mn(args.m, args.n, mon.Word.parse(args.word))
        normal = mon.normal_form_fplus(out)
    print(out, "=", normal)
    return 0


def cmd_derive(args) -> int:
    try:
        with _refused_as_input():
            trace = mon.extended_relation_check(args.monoid, args.k, args.l)
    except mon.DerivationNotFound as e:
        print(f"FAIL  {e}", file=sys.stderr)
        return 1
    if not trace.validate():
        print("FAIL  derivation does not replay", file=sys.stderr)
        return 1
    print(trace.to_json())
    if args.json:
        _write_json(args.json, trace.to_json())
    return 0


def cmd_stationary(args) -> int:
    spec, _ = _load_chainspec(args.chainspec)
    print(" ".join(format_rational(p) for p in spec.pi.weights))
    return 0


def cmd_dilate(args) -> int:
    # at depth 1 the only power and the only moments are T's own
    _require_depth(args.depth, 2, "dilate")
    spec, _ = _load_chainspec(args.chainspec)
    model = dil.build_markov_dilation(spec, args.depth, budget=args.budget)
    report = chk.VerificationReport()
    chk.add_dilation_entries(report, model)
    return _emit(report, args)


def cmd_rep_check(args) -> int:
    _require_depth(args.depth, 2, "rep-check")  # intertwining needs 1 <= n < K
    spec, obj = _load_chainspec(args.chainspec)
    K = args.depth
    rep = _build_rep(spec, obj, K, args.budget)
    report = chk.VerificationReport()
    report.add("monoid-relations", "alpha_k alpha_l = alpha_{l+1} alpha_k for k < l", *rp.monoid_relations_check(rep, K))
    ok, wit = rp.intertwining_identities_check(rep)
    report.add("intertwining", "alpha_k Q_n = Q_{n+1} alpha_k for k < n", ok, wit)
    return _emit(report, args)


def cmd_lump(args) -> int:
    _require_depth(args.depth, 2, "lump")  # at depth 1 the only past, [0,0], is the present
    spec, _ = _load_chainspec(args.chainspec)
    try:
        f = [int(t) for t in args.map.split(",")]
    except ValueError:
        raise InputError(f"bad lumping map {args.map!r}; expected e.g. 0,1,0")
    if len(f) != spec.d or any(not 0 <= x < spec.d for x in f):
        raise InputError("lumping map must assign a class to every state")
    model = dil.build_markov_dilation(spec, args.depth, budget=args.budget)
    lumped = chk.ProcessView.from_model(model).lump(f)
    report = chk.maximal_ps_check(lumped)
    report.extend(chk.markov_sequence_check(lumped))
    return _emit(report, args)


def cmd_verify(args) -> int:
    """Build one model and run every requested suite on it.  Its
    representation keeps every relation, tower intersection and
    intertwining verdict it decided, window by window, so a later suite on
    the model decides none of them again; the hierarchy reads its capped
    horizon off that model.  --suite tower prints one line per tower cell
    (m, n, k), in that order, each with the verdict of the head lemma's
    premise (rp.tower_head_lemma); this is the only place the cells are
    listed."""
    suites = ("definetti", "tower", "hierarchy") if args.suite == "all" else (args.suite,)
    # below depth 3 the tower has no cell; below depth 2 spreadability
    # compares no two marginals
    _require_depth(args.depth, 2 if suites == ("hierarchy",) else 3, f"verify --suite {args.suite}")
    spec, _ = _load_chainspec(args.chainspec)
    K = min(args.depth, 5) if suites == ("hierarchy",) else args.depth
    model = dil.build_markov_dilation(spec, K, budget=args.budget)
    report = chk.VerificationReport()
    if "definetti" in suites:
        report.extend(chk.definetti_checks(model))
    if "tower" in suites:
        level, lemma = K - 1, rp.tower_head_lemma(model.rep)
        cell = "the cell (M_{m+k} ⊃ a0^k(M_m); M_{n+k} ⊃ a0^k(M_n)) commutes"
        for m in range(level + 1):
            for n in range(m + 1, level + 1):
                for k in range(1, level - n + 1):
                    report.add(f"tower-cell-m{m}-n{n}-k{k}", cell, lemma)
        for n, ok in sorted(rp.triangular_tower_check(model.rep).items()):
            report.add(f"tower-intersection-n{n}", "M_{n+1} ∩ alpha_0(M_{n+1}) = alpha_0(M_n)", ok)
    if "hierarchy" in suites:
        report.extend(chk.hierarchy_check(model, min(args.depth, 5)).report)
    return _emit(report, args)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    `main` call.  Each subcommand binds its `cmd_*` function when the parser
    is first built, so replacing a `cmd_*` afterwards does not reach `main`."""
    p = argparse.ArgumentParser(
        prog="finmarkov",
        description="exact finite models: monoid words, Markov dilations, commuting squares",
    )
    p.add_argument("--json", metavar="PATH", help="write the report as JSON")
    p.add_argument("--timing", action="store_true", help="include timing in the JSON report")
    p.add_argument(
        "--budget",
        type=int,
        default=2_000_000,
        metavar="ATOMS",
        help="largest materialized level size (default 2000000)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("normalize", help="normal form of an F+ word")
    q.add_argument("word")
    q.set_defaults(func=cmd_normalize)

    q = sub.add_parser("word-eq", help="decide equality of two words")
    q.add_argument("word1")
    q.add_argument("word2")
    q.add_argument("--monoid", choices=("fplus", "splus"), default="fplus")
    q.set_defaults(func=cmd_word_eq)

    q = sub.add_parser("shift", help="apply the (m,n)-partial shift")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q.add_argument("word")
    q.set_defaults(func=cmd_shift)

    q = sub.add_parser("derive", help="derive the twisted-generator relation in EF+/ES+/FF+")
    q.add_argument("monoid", choices=("EF+", "ES+", "FF+", "ef+", "es+", "ff+"))
    q.add_argument("k", type=int)
    q.add_argument("l", type=int)
    q.set_defaults(func=cmd_derive)

    q = sub.add_parser("stationary", help="exact stationary distribution of a chain")
    q.add_argument("chainspec")
    q.set_defaults(func=cmd_stationary)

    q = sub.add_parser("dilate", help="build the tensor dilation and verify it")
    q.add_argument("chainspec")
    q.add_argument("--depth", type=int, default=4, metavar="K")
    q.set_defaults(func=cmd_dilate)

    q = sub.add_parser("rep-check", help="verify the monoid representation of a chain")
    q.add_argument("chainspec")
    q.add_argument("--depth", type=int, default=4, metavar="K")
    q.set_defaults(func=cmd_rep_check)

    q = sub.add_parser("lump", help="push the process through a state map and re-check")
    q.add_argument("chainspec")
    q.add_argument("--map", required=True, help="comma list, e.g. 0,1,0")
    q.add_argument("--depth", type=int, default=4, metavar="K")
    q.set_defaults(func=cmd_lump)

    q = sub.add_parser("verify", help="run a named verification suite")
    q.add_argument("chainspec")
    q.add_argument("--depth", type=int, default=4, metavar="K")
    q.add_argument(
        "--suite", choices=("definetti", "tower", "hierarchy", "all"), default="all"
    )
    q.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, rp.AtomBudgetError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only on this path, to keep it out of start-up

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

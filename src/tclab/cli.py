"""Command line interface: scenario runner and per-kind shortcuts.

``tclab run config.json`` executes every scenario in the config and
writes one artifact per scenario plus a summary CSV.  The shortcut
subcommands (``epi``, ``decay``, ``flat``, ``calib``, ``split``) build a
one-scenario config from flags and run it the same way; their flags are
generated from the parameter schemas in ``scenarios``, and a flag left
unset leaves its key out so the schema default applies.  Exit codes:
0 all verdicts pass, 1 any verdict failed or a scenario errored, 2 the
config was malformed (including an unknown key or an invalid value).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields
from typing import Literal, get_args, get_origin

from .errors import ConfigError, ScenarioError
from .scenarios import (SCHEMAS, Scenario, load_config, run_scenario,
                        parts, merge, render_artifact, render_summary,
                        artifact_name, summary_rows, SUMMARY_COLUMNS,
                        _schema_hints)


def _number(text: str):
    """One number, kept an int when it reads as one."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _numbers(text: str) -> list:
    """Comma-separated numbers."""
    return [_number(tok) for tok in filter(None, text.split(","))]


def _flag_spec(tp) -> dict:
    """argparse keywords for a schema field; the schema checks the value."""
    if get_origin(tp) is Literal:
        return {"choices": get_args(tp)}
    if get_origin(tp) is tuple:
        return {"type": _numbers, "metavar": "X[,X...]"}
    return {"type": _number}


def _add_kind(subs, kind: str, schema) -> None:
    """Subcommand with one flag per schema field; unset flags stay unset,
    so the dataclass alone supplies defaults."""
    sub = subs.add_parser(kind, help=schema.__doc__.strip())
    sub.add_argument("--name", default=kind, help="scenario name")
    hints = _schema_hints(schema)
    for f in fields(schema):
        flags = ["--" + f.name.lower().replace("_", "-")]
        if f.name == "Q" and get_origin(hints[f.name]) is tuple:
            flags.append("--qs")
        text = f.metadata["help"]
        if f.default is not None:
            shown = f.default
            if isinstance(shown, tuple):
                shown = ",".join(map(str, shown))
            text += f" (default: {shown})"
        sub.add_argument(*flags, dest=f.name, default=argparse.SUPPRESS,
                         help=text, **_flag_spec(hints[f.name]))
    _add_common(sub)


def _add_common(sub):
    sub.add_argument("--out", default="out", help="artifact directory")
    sub.add_argument("--seed", type=int, default=None,
                     help="override scenario seeds")
    sub.add_argument("--jobs", type=int, default=1,
                     help="processes that certify, this one included: "
                     "each takes the next unit of work from one shared "
                     "counter, and each forked worker returns its results "
                     "in one message; the unit is one epi curve or one "
                     "scenario of another kind, and artifacts are the same "
                     "at every --jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tclab",
        description="numerical laboratory for currents near cones")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="run every scenario in a JSON config")
    run.add_argument("config", help="path to the config file")
    _add_common(run)
    for kind, schema in SCHEMAS.items():
        _add_kind(subs, kind, schema)
    return parser


def _shortcut_scenario(args) -> Scenario:
    params = {f.name: getattr(args, f.name)
              for f in fields(SCHEMAS[args.command]) if hasattr(args, f.name)}
    return Scenario(name=args.name, kind=args.command, seed=0, params=params)


def _apply_seed(scenarios, seed):
    if seed is None:
        return scenarios
    return [Scenario(name=sc.name, kind=sc.kind, seed=seed + k,
                     params=sc.params) for k, sc in enumerate(scenarios)]


def _format_summary(results) -> str:
    rows = [SUMMARY_COLUMNS]
    for row in summary_rows(results):
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.6g}")
            else:
                cells.append(str(v))
        rows.append(tuple(cells))
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in rows]
    return "\n".join(lines)


def _certify(units, jobs: int) -> list:
    """The outcome of each unit, in unit order: its ScenarioResult or the
    exception certifying it raised, which the caller replays.

    With jobs > 1 and more than one unit, min(jobs, units) - 1 workers are
    forked.  Every process, this one included, takes the next unit index
    from one lock-guarded shared counter until it passes the last unit,
    so no unit waits on a hand-off.  Each worker returns every
    (index, outcome) pair it made in one message.  Otherwise this process
    certifies the units in order.
    """
    workers = min(jobs, len(units)) - 1
    if workers < 1:
        return [_outcome(unit) for unit in units]
    # imported here so that a serial run loads no multiprocessing; fork, so
    # that the workers inherit the units and need nothing sent to them
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    taken = ctx.Value("l", 0)
    procs, inbox = [], []
    try:
        for _ in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_work, args=(units, taken, send))
            proc.start()
            send.close()
            procs.append(proc)
            inbox.append(recv)
        made = dict(_drain(units, taken))
        for proc, recv in zip(procs, inbox):
            try:
                made.update(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a --jobs worker exited with code {proc.exitcode} "
                    "before sending its results") from None
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for recv in inbox:
            recv.close()
    return [made[k] for k in range(len(units))]


def _drain(units, taken) -> list:
    """(index, outcome) of each unit this process takes from the shared
    counter, until the counter passes the last unit."""
    made = []
    while True:
        with taken.get_lock():
            k = taken.value
            taken.value = k + 1
        if k >= len(units):
            return made
        made.append((k, _outcome(units[k])))


def _outcome(unit):
    """The unit's ScenarioResult, or the exception certifying it raised."""
    try:
        return run_scenario(unit)
    except Exception as err:
        return err


def _replay(outcome):
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _work(units, taken, send) -> None:
    """A forked worker: send every pair _drain makes in one message."""
    send.send(_drain(units, taken))
    send.close()


def _execute(scenarios, out_dir: str, jobs: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    plan = [parts(sc) for sc in scenarios]
    outcomes = iter(_certify([u for units in plan for u in units], jobs))
    results, errored = [], []
    for sc, units in zip(scenarios, plan):
        mine = [next(outcomes) for _ in units]
        try:
            results.append(merge([_replay(outcome) for outcome in mine]))
        except ScenarioError as err:
            errored.append(sc.name)
            print(str(err), file=sys.stderr)
            # an artifact left by an earlier run would read as this run's
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, artifact_name(sc)))

    for res in results:
        path = os.path.join(out_dir, artifact_name(res))
        with open(path, "w", newline="") as fh:
            fh.write(render_artifact(res))
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        fh.write(render_summary(results))
    print(_format_summary(results))
    if errored:
        print(f"errored scenarios: {', '.join(errored)}", file=sys.stderr)
    return 1 if errored or any(res.nfail for res in results) else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        if args.command == "run":
            with open(args.config) as fh:
                text = fh.read()
            scenarios = load_config(text)
        else:
            scenarios = [_shortcut_scenario(args)]
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return _execute(_apply_seed(scenarios, args.seed), args.out, args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())

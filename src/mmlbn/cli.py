"""Command line interface: learn, eval and score."""

from __future__ import annotations

import argparse
import json
import math
import sys

from .dataset import load_csv, load_csv_with_labels
from .errors import CycleError, DataFormatError, MmlbnError
from .evaluation import EvalSummary, cross_validate, evaluate_split
from .graph import DagStructure
from .sampler import PosteriorReport, SamplerConfig
from .sampler import run_sampler
from .scoring import ModelPolicy, NetworkScorer, ScoreCache


def _add_data_flags(parser):
    """Flags of every subcommand: the data, how to read it, the priors, the output."""
    parser.add_argument("--data", required=True, help="data CSV")
    parser.add_argument(
        "--missing-policy",
        choices=["extra-category", "reject"],
        default="extra-category",
        help="'?' cells become an extra state of their variable (extra-category, "
        "the default) or are an error (reject)",
    )
    parser.add_argument("--sigma", type=float, default=SamplerConfig.sigma)
    parser.add_argument(
        "--arc-prior",
        type=float,
        default=SamplerConfig.p,
        help="prior probability of an arc slot",
    )
    parser.add_argument("--out", help="report path (default: stdout)")


def _add_sampler_flags(parser):
    _add_data_flags(parser)
    parser.add_argument(
        "--model",
        choices=["tbn", "fon", "dual"],
        default=SamplerConfig.policy.value,
        help=f"node model policy (default {SamplerConfig.policy.value})",
    )
    parser.add_argument("--seed", type=int, default=SamplerConfig.seed)
    parser.add_argument("--iterations", type=int, default=SamplerConfig.iterations)
    parser.add_argument("--burn-in", type=int, default=SamplerConfig.burn_in)
    parser.add_argument("--max-parents", type=int, default=SamplerConfig.max_parents)
    parser.add_argument("--top-k", type=int, default=SamplerConfig.top_k)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mmlbn",
        description="Bayesian network structure discovery by minimum message length",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="sample structures and report classes")
    _add_sampler_flags(learn)

    evaluate = sub.add_parser("eval", help="held-out predictive evaluation")
    _add_sampler_flags(evaluate)
    evaluate.add_argument("--test", help="held-out test CSV (skips splitting)")
    evaluate.add_argument("--repeats", type=int, default=10)
    evaluate.add_argument(
        "--fraction", type=float, default=0.1, help="test fraction per repeat"
    )

    score = sub.add_parser("score", help="score a fixed structure under each policy")
    _add_data_flags(score)
    score.add_argument("--structure", required=True, help="arc list file or 'empty'")
    return parser


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        iterations=args.iterations,
        burn_in=args.burn_in,
        seed=args.seed,
        policy=ModelPolicy(args.model),
        p=args.arc_prior,
        sigma=args.sigma,
        max_parents=args.max_parents,
        top_k=args.top_k,
    )


def _config_echo(args) -> dict:
    """The subcommand and every parsed flag but the report path."""
    return {name: value for name, value in vars(args).items() if name != "out"}


def _arcs_as_strings(dag: DagStructure) -> list[str]:
    return [f"{u}->{v}" for u, v in dag.arcs()]


def _classes_payload(report: PosteriorReport) -> list[dict]:
    payload = []
    for record, weight in zip(report.classes, report.weights()):
        per_node = [
            {"model": score.chosen_model, "params": score.parameter_count}
            for score in report.scorer.node_scores(record.best_network)
        ]
        payload.append(
            {
                "arcs": _arcs_as_strings(record.best_network),
                "visits": record.visits,
                "weight": weight,
                "best_length": record.best_length,
                "per_node": per_node,
            }
        )
    return payload


def parse_structure_file(path, m: int, names=()) -> DagStructure:
    """Read one arc per line as 'i->j' or 'name->name'; 'empty' means no arcs.

    A name shared by several columns is ambiguous and must be given by index.
    Errors name the file, and the line when one line is at fault.
    """
    index = {}
    for i, name in enumerate(names):
        index[name] = None if name in index else i  # None: ambiguous

    def resolve(token, lineno):
        token = token.strip()
        try:
            node = int(token)
        except ValueError:
            if token not in index:
                raise ValueError(f"{path}:{lineno}: unknown variable {token!r}") from None
            if index[token] is None:
                raise ValueError(
                    f"{path}:{lineno}: variable name {token!r} names more than one "
                    "column; use column indices instead"
                ) from None
            return index[token]
        if not 0 <= node < m:
            raise ValueError(f"{path}:{lineno}: node index out of range")
        return node

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as err:  # decoded in blocks: no line to name
        raise DataFormatError(f"{path}: not UTF-8 text ({err.reason})") from None
    arcs = {}  # arc -> the line giving it
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#") or line == "empty":
            continue
        if "->" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'i->j', found {line!r}")
        left, _, right = line.partition("->")
        u, v = arc = resolve(left, lineno), resolve(right, lineno)
        if u == v:
            raise CycleError(f"{path}:{lineno}: node {v} lists itself as a parent")
        if arc in arcs:
            raise ValueError(f"{path}:{lineno}: arc {u}->{v} repeats line {arcs[arc]}")
        arcs[arc] = lineno
    try:
        return DagStructure.from_arcs(m, arcs)
    except CycleError as err:  # a cycle spans lines
        raise CycleError(f"{path}: {err}") from None


def _write_report(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _run_learn(args) -> dict:
    ds = load_csv(args.data, args.missing_policy)
    report = run_sampler(ds, _sampler_config(args))
    classes = _classes_payload(report)
    return {
        "config": _config_echo(args),
        "dataset": {
            "cases": ds.n_cases,
            "variables": [
                {"name": v.name, "arity": v.arity} for v in ds.variables
            ],
        },
        "total_samples": report.total_samples,
        "classes": classes,
        "summary": {
            "classes_reported": len(classes),
            "best_length": min((c["best_length"] for c in classes), default=None),
        },
    }


def _run_eval(args) -> dict:
    ds = load_csv(args.data, args.missing_policy)
    config = _sampler_config(args)
    if args.test:
        test = load_csv_with_labels(args.test, ds.variables)
        summary = EvalSummary((evaluate_split(ds, test, config),)).to_dict()
    else:
        summary = cross_validate(ds, args.repeats, config, args.fraction).to_dict()
    return {
        "config": _config_echo(args),
        "dataset": {"cases": ds.n_cases, "variables": len(ds.variables)},
        "summary": summary,
    }


def _run_score(args) -> dict:
    ds = load_csv(args.data, args.missing_policy)
    if args.structure == "empty":
        dag = DagStructure.empty(ds.n_variables)
    else:
        dag = parse_structure_file(
            args.structure, ds.n_variables, [v.name for v in ds.variables]
        )
    lengths = {}
    errors = {}
    cache = ScoreCache()  # the policies share each node's table and logit fit
    for policy in ModelPolicy:
        scorer = NetworkScorer(ds, policy, args.arc_prior, args.sigma, cache)
        try:
            length = scorer.total_length(dag)
            if math.isinf(length):
                scorer.node_scores(dag)  # raises the first node's error
        except MmlbnError as err:
            length = None
            errors[policy.value] = str(err)
        lengths[policy.value] = length
    report = {
        "config": _config_echo(args),
        "structure": {"arcs": _arcs_as_strings(dag)},
        "lengths": lengths,
    }
    if errors:
        report["errors"] = errors
    return report


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "learn":
            report = _run_learn(args)
        elif args.command == "eval":
            report = _run_eval(args)
        else:
            report = _run_score(args)
        _write_report(report, args.out)
    except (MmlbnError, ValueError, OSError) as err:
        print(f"mmlbn {args.command}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

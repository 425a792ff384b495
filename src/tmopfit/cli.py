"""Command-line driver: run cases, check derivatives, inspect meshes."""

import argparse
import math
import sys

from .cases import CASE_DEFAULTS, named_case, run_case
from .errors import MeshParseError, TmopFitError
from .mesh import is_valid, read_mesh
from .quality import METRIC_IDS


def _at_least(minimum, kind):
    """argparse type: a finite `kind` value >= minimum."""

    def parse(text):
        value = kind(text)  # argparse reports a ValueError as an invalid value
        if not (math.isfinite(value) and value >= minimum):
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} >= {minimum}, got {text!r}"
            )
        return value

    parse.__name__ = kind.__name__
    return parse


# Exit code of `tmopfit run` when the solve stops other than converged.
EXIT_NOT_CONVERGED = 3
# argparse's exit code on a usage error, also that of a mesh file that
# cannot be read and of a run that stops on a package error.
EXIT_USAGE = 2


def _cmd_run(args):
    overrides = dict(
        resolution=args.res,
        order=args.order,
        w_sigma=args.wsigma,
        metric_id=args.metric,
        max_iterations=args.max_iter,
    )
    try:
        case = named_case(args.case, **overrides)
        if args.mode is not None:
            case = case.copy_with(mode=args.mode)
        run = run_case(case, out_dir=args.out)
    except TmopFitError as exc:
        print(f"tmopfit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    r = run.fit_report
    print(f"case          {r.case}")
    print(f"termination   {r.reason}")
    if run.align_report is not None:  # relax and fixed cases
        print(f"alignment     {run.align_report.reason}, {run.align_report.iterations} iterations")
    print(f"iterations    {r.iterations}")
    print(f"F0            {r.f0:.6e}")
    print(f"F_final       {r.f_final:.6e}")
    print(f"F decrease    {r.f_decrease_pct:.1f}%")
    if r.e_s is not None:
        print(f"e_S           {r.e_s:.3e}")
    print(f"E_avg         {r.e_avg:.3e}")
    print(f"E_max         {r.e_max:.3e}")
    print(f"wall time     {r.wall_time_s:.1f} s")
    if args.out:
        print(f"outputs in    {args.out}")
    return 0 if run.solve_report.reason == "converged" else EXIT_NOT_CONVERGED


def _cmd_check_gradients(args):
    from .checks import check_gradients

    results = check_gradients(seed=args.seed, verbose=True)
    failures = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failures)}/{len(results)} checks passed")
    return 0 if not failures else 1


def _cmd_info(args):
    try:
        mesh, nodes = read_mesh(args.mesh)
    except (OSError, MeshParseError) as exc:
        print(f"tmopfit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    valid, min_det = is_valid(mesh, nodes)
    pts = nodes.as_matrix()
    print(f"file          {args.mesh}")
    print(f"dimension     {mesh.dim}")
    print(f"order         {mesh.order}")
    print(f"geometry      {mesh.geometry}")
    print(f"elements      {mesh.num_elements}")
    print(f"nodes         {mesh.num_nodes}")
    print(f"attributes    {sorted(set(int(a) for a in mesh.attributes))}")
    print(f"boundary      {len(mesh.boundary)} faces")
    print(f"bounding box  {pts.min(axis=0)} .. {pts.max(axis=0)}")
    print(f"valid         {valid} (min det A = {min_det:.6e})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tmopfit",
        description="High-order mesh optimization with level-set surface "
        "fitting and tangential relaxation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run a named test case",
        description="Run a named test case.  Exits 0 when the solve converges, "
        f"{EXIT_NOT_CONVERGED} when it stops otherwise (max-iter or "
        "line-search-failure) and 2 on a usage error or when the case cannot "
        "run (for example, no interface nodes at --res 1).",
    )
    p_run.add_argument("case", choices=sorted(CASE_DEFAULTS))
    p_run.add_argument("--res", type=_at_least(1, int), help="cells per axis")
    p_run.add_argument("--order", type=_at_least(1, int), help="mesh order")
    p_run.add_argument("--wsigma", type=_at_least(0, float), help="fitting weight")
    p_run.add_argument("--metric", choices=METRIC_IDS, help="quality metric id")
    p_run.add_argument(
        "--mode", choices=("fixed", "relax"), default=None,
        help="interface treatment for relaxation cases",
    )
    p_run.add_argument("--max-iter", type=_at_least(1, int))
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_chk = sub.add_parser(
        "check-gradients", help="compare derivatives against finite differences"
    )
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(func=_cmd_check_gradients)

    p_info = sub.add_parser("info", help="describe a mesh file")
    p_info.add_argument("mesh")
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""The specpoint console script: reports as JSON lines.

    specpoint closure --pairs 1,1 2,3 --T 3 --M 1 --tol 1e-8
    specpoint decompose --N 4 --T 3 --M 1.5 --seed 1
    specpoint sieve --N 256 --C 256 --gamma 1 --tau 1 --v 1 --seed 1

closure runs the trace identity S + T_eis = D + P of each pair with no
spectral data: for T <= 3 and M <= 1 the cuspidal side is below 3e-19
(SL2(Z) has no cusp form with t < 9.53), so S reads 0 and spectral_tail
bounds it. decompose runs it averaged over a real sequence on (N, 2N]
drawn uniformly from [-1, 1] with the seed. Both print a
DecompositionReport; P sums c <= params["c_eval"], the smallest C whose
tail bars add up to at most tol. sieve runs young_ls_ratio over c <= C
and |t| <= tau for Sequence.random(N, seed), uniform on the unit disk.

Every report is printed as one line: dataclasses.asdict of it plus
"wall_s", the seconds it took.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

from .besselintegral import SpectralWeight
from .kuznetsov import decomposition, trace_residual
from .sievebench import Sequence, young_ls_ratio


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        # m, n >= 1 index Fourier coefficients, N >= 1 sizes a block; a C
        # below 1 sums no modulus
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _pair(text: str) -> tuple[int, int]:
    m, n = text.split(",")
    return _positive_int(m), _positive_int(n)


def _emit(report, wall_s: float) -> None:
    # a NaN or an infinity would print a token JSON has not: a usage error
    print(json.dumps({**dataclasses.asdict(report), "wall_s": wall_s}, allow_nan=False), flush=True)


def _closure(args) -> None:
    sw = SpectralWeight(args.T, args.M)
    for m, n in args.pairs:
        start = time.perf_counter()
        report = trace_residual(m, n, sw, [], tol=args.tol)
        _emit(report, time.perf_counter() - start)


def _decompose(args) -> None:
    seq = Sequence.random(N=args.N, seed=args.seed, real=True)
    start = time.perf_counter()
    report = decomposition(seq, SpectralWeight(args.T, args.M), [])
    _emit(report, time.perf_counter() - start)


def _sieve(args) -> None:
    seq = Sequence.random(N=args.N, seed=args.seed)
    start = time.perf_counter()
    report = young_ls_ratio(seq, args.gamma, args.tau, args.v, args.C)
    _emit(report, time.perf_counter() - start)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="specpoint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    closure = sub.add_parser("closure", help="data-free trace identity, one line per pair")
    closure.add_argument("--pairs", type=_pair, nargs="+", default=[(1, 1)], metavar="M,N")
    closure.add_argument("--T", type=float, default=3.0)
    closure.add_argument("--M", type=float, default=1.0)
    closure.add_argument("--tol", type=float, default=1e-8)
    closure.set_defaults(run=_closure)

    decompose = sub.add_parser("decompose", help="averaged decomposition S + T = D + P")
    decompose.add_argument("--N", type=_positive_int, default=4)
    decompose.add_argument("--T", type=float, default=3.0)
    decompose.add_argument("--M", type=float, default=1.5)
    decompose.add_argument("--seed", type=int, default=1)
    decompose.set_defaults(run=_decompose)

    sieve = sub.add_parser("sieve", help="hybrid large-sieve ratio over c <= C and |t| <= tau")
    sieve.add_argument("--N", type=_positive_int, default=256)
    sieve.add_argument("--C", type=_positive_int, default=256)
    sieve.add_argument("--gamma", type=float, default=1.0)
    sieve.add_argument("--tau", type=float, default=1.0)
    sieve.add_argument("--v", type=float, default=1.0)
    sieve.add_argument("--seed", type=int, default=1)
    sieve.set_defaults(run=_sieve)

    args = parser.parse_args(argv)
    try:
        args.run(args)
    except ValueError as exc:
        # an input outside a routine's range (M outside [1, T], tol <= 0, ...)
        # is a usage error, as one that argparse rejects is
        parser.error(str(exc))


if __name__ == "__main__":
    main()

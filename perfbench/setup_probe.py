"""One fresh-process set-up measurement: import plus the first call.

Usage: python3 perfbench/setup_probe.py WORKLOAD SRC_DIR

Prints the seconds from before ``import asymconv`` until the workload's
first call has returned, which covers numpy's import and the package's
lazy set-up (Gauss-Legendre tables, the argument parser), and then the
speed factor of :class:`gauge.SpeedGauge` read in this same process.
The caller pins the BLAS threads in the environment before starting
this process.
"""

import contextlib
import io
import sys
import time


def main() -> int:
    workload, src = sys.argv[1], sys.argv[2]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import asymconv
    from asymconv import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["constant", "-a", "-1/3", "-b", "-1/4"])
    if code != cli.EXIT_OK:
        return 1
    if workload != "algebra":
        spec = asymconv.KernelSpec(a="-1/3", b="-1/4", p=0, q=0, j=0, k=0)
        asymconv.eval_kernel_integral(spec, 0.2)
    elapsed = time.perf_counter() - start
    from gauge import SpeedGauge

    print(repr(elapsed), repr(SpeedGauge().factor()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

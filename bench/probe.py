"""Set-up probe: a fresh interpreter imports xreid, resolves one workload's
config and runs ``cmd_generate``. The benchmark times this whole process.

Usage: python3 bench/probe.py <workload> <seed> <output dir>
"""

import sys

import workloads


def main(argv) -> int:
    workload, seed, out = argv
    workloads.load_program()
    from xreid import cli

    cli.cmd_generate(workloads.config(workload, int(seed), out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

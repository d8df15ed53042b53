#!/usr/bin/env python3
"""Run the risk-gap scaling experiment on the symmetric synthetic task.

Writes per-trial gaps plus a summary with median gaps and the fitted log-log
slope per alpha (about -1/2 when the gap decays like 1/sqrt(n)).  Arguments
are forwarded to the ``landscape`` subcommand.
"""
import sys

from alphaloss.cli import main

DEFAULTS = ["--trials", "21", "--seed", "20240819", "--out", "landscape.csv"]

if __name__ == "__main__":
    extra = sys.argv[1:] or DEFAULTS
    sys.exit(main(["landscape"] + extra))

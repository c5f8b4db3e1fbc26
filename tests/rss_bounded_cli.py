"""Run the diagwalks CLI as a child under a bound on its max RSS.

    python tests/rss_bounded_cli.py MB CLI_ARGUMENT...

Runs `python -m diagwalks.cli CLI_ARGUMENT...`, prints its stdout, and
exits 0 only when the child exits 0 and the children's max RSS is below
MB megabytes. The launcher imports no numpy, so that peak is the CLI's.
"""

import resource
import subprocess
import sys


def main(argv):
    bound, args = float(argv[0]), argv[1:]
    out = subprocess.run([sys.executable, "-m", "diagwalks.cli", *args],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    print(out, end="")
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if rss_mb >= bound:
        return f"max RSS {rss_mb:.0f} MB, over {bound:g} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

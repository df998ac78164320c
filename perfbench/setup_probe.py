"""One set-up as a CLI user pays it: import numpy and thzisac, then load the config.

Usage: python3 perfbench/setup_probe.py <src dir> <config.yaml>
Prints the elapsed seconds from the first statement to a loaded config.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402


def main() -> int:
    src, config = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    from thzisac import experiments  # noqa: F401
    from thzisac.config import load_config
    load_config(config)
    print(f"{time.perf_counter() - _T0:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

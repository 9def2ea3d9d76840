"""Set-up time of one fresh process: import the package, build or load the
workload's scenario once (construction validates it), print the seconds.

    python3 perfbench/setup_probe.py casestudy
    python3 perfbench/setup_probe.py load SCENARIO.json
"""

import sys
import time

START = time.perf_counter()


def main(argv: list[str]) -> None:
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import socio_grid_sim

    if argv[0] == "casestudy":
        for variant in ("full_access", "limited_access"):
            socio_grid_sim.builtin_case_study(variant)
    else:
        socio_grid_sim.load_scenario(argv[1])
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])

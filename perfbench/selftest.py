"""Show that each correctness checker rejects a deliberately corrupted report.

    python3 perfbench/selftest.py

Builds genuine reports by calling ``specbound.cli.run`` from ``src`` on small
benchmark inputs, confirms each checker accepts them, then corrupts one field
at a time and confirms the checker rejects every corruption.  Exits 0 only if
every genuine report passes and every corrupted one is caught.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from specbound import cli  # noqa: E402


def report(argv, text=None) -> dict:
    buf = io.StringIO()
    rc = cli.run(argv, text, buf)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}: {buf.getvalue()}")
    return json.loads(buf.getvalue())["payload"]


def graph(n, edges):
    return workloads.edge_list_text(n, edges), checks.Facts(n, edges)


def main() -> int:
    rng = random.Random(7)
    cubic_text, cubic = graph(60, workloads.hamiltonian_cubic(60, rng))
    path_text, path = graph(40, workloads.path_edges(40))
    odd_text, obstruction = graph(*workloads.tutte_obstruction((3, 3, 5), rng))
    clebsch_text, clebsch = graph(*workloads.clebsch())

    spectrum = report(["spectrum"], cubic_text)
    path_spectrum = report(["spectrum"], path_text)
    color = report(["color", "--algorithm", "wilf"], cubic_text)
    brute = report(["color", "--algorithm", "brute"], clebsch_text)
    tutte = report(["tutte", "--mode", "exhaustive"], odd_text)
    limit = report(["limit", "--max-n", "32", "--interval=-2,2"])
    counts = list(checks.CLASS_COUNTS)
    connected = list(checks.CONNECTED_COUNTS)

    def moved(p, key, i, delta=1e-6):
        q = copy.deepcopy(p)
        q[key][i] += delta
        return q

    def improper(p, facts):
        q = copy.deepcopy(p)
        u, v = facts.edges[0]
        q["colors"][v] = q["colors"][u]
        return q

    def witness_off_by_one(p, facts):
        q = copy.deepcopy(p)
        odd = checks.odd_components_after(facts, q["witness"])
        q["c_star"] = (odd + 1) / len(q["witness"])
        return q

    def field(p, key, value):
        q = copy.deepcopy(p)
        q[key] = value
        return q

    spec_check = partial(checks.check_spectrum, facts=cubic, norm=3.0, kind="regular")
    path_check = partial(checks.check_spectrum, facts=path, kind="path",
                         norm=workloads.closed_form_norm({"kind": "path", "n": 40}))
    color_check = partial(checks.check_color_wilf, facts=cubic, norm=3.0)
    brute_check = partial(checks.check_color_brute, facts=clebsch)
    tutte_check = partial(checks.check_tutte, facts=obstruction, exhaustive=True,
                          classical=checks.nx_tutte_condition(obstruction))
    limit_check = partial(checks.check_limit, max_n=32, interval=(-2.0, 2.0))
    counts_check = partial(checks.check_class_counts, connected=connected)
    connected_check = partial(checks.check_class_counts, counts)

    cases = [
        # (label, checker, genuine report, corrupted report)
        ("largest adjacency eigenvalue +1e-6", spec_check, spectrum,
         moved(spectrum, "spectrum_adj", -1)),
        ("middle adjacency eigenvalue +1e-6", spec_check, spectrum,
         moved(spectrum, "spectrum_adj", 30)),
        ("smallest Laplacian eigenvalue +1e-6", spec_check, spectrum,
         moved(spectrum, "spectrum_lap", 0)),
        ("path eigenvalue -1e-6", path_check, path_spectrum,
         moved(path_spectrum, "spectrum_adj", 5, -1e-6)),
        ("improper wilf coloring", color_check, color, improper(color, cubic)),
        ("brute chromatic number off by one", brute_check, brute,
         field(brute, "chromatic", brute["chromatic"] - 1)),
        ("Tutte witness odd-component count off by one", tutte_check, tutte,
         witness_off_by_one(tutte, obstruction)),
        ("classical_holds flipped", tutte_check, tutte,
         field(tutte, "classical_holds", not tutte["classical_holds"])),
        ("limit max_gap +1e-6", limit_check, limit,
         field(limit, "max_gap", limit["max_gap"] + 1e-6)),
        ("class count at n=8 off by one", counts_check, counts,
         counts[:-1] + [counts[-1] - 1]),
        ("connected class count at n=8 off by one", connected_check, connected,
         connected[:-1] + [connected[-1] + 1]),
    ]
    status = 0
    for label, check, genuine, corrupted in cases:
        accepted = not check(genuine)
        rejected = bool(check(corrupted))
        ok = accepted and rejected
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: genuine "
              f"{'accepted' if accepted else 'REJECTED'}, corrupted "
              f"{'rejected' if rejected else 'ACCEPTED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())

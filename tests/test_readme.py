"""The README's two check tables, the "Checks" table and the margins table
for seeds 0-99, name exactly the (verb, check) rows of ``cli.VERBS`` with
their tolerances, floor kinds and ``--tol`` reach: a new row or a changed
tolerance without a regenerated table fails here."""

from pathlib import Path

from aqm_lab.cli import VERBS

README = Path(__file__).resolve().parents[1] / "README.md"
CHECKS = {(verb, c.name): c for verb, v in VERBS.items() for c in v.checks}


def table(header: str) -> list[list[str]]:
    """The body rows, as stripped cells, of the README table whose header
    row is ``header``."""
    lines = README.read_text().splitlines()
    start = lines.index(header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_checks_table_is_the_verb_table():
    # a blank verb cell continues the verb above; a tolerance reads
    # "floor <threshold>" on a floor, and "0 (a count)" on the count
    rows, verb = {}, None
    for cells in table("| verb | check | default tolerance | reduction "
                       "| `--tol` |"):
        verb = cells[0].strip("`") or verb
        key = (verb, cells[1].strip("`"))
        assert key not in rows, key
        rows[key] = cells
    assert rows.keys() == CHECKS.keys()
    for key, (_, _, tolerance, _, tol_flag) in rows.items():
        check = CHECKS[key]
        floor = tolerance.startswith("floor ")
        threshold = float(tolerance.split()[1 if floor else 0])
        assert (floor, threshold) == (check.floor, check.tol), key
        assert tol_flag == ("yes" if check.tol and not check.floor
                            else "no"), key


def test_margins_table_is_the_verb_table():
    # tools/payload_digests.py labels trace's JSON runs trace/json; CSV
    # runs have no check values and no row
    label = {"trace": "trace/json"}
    rows = {}
    for cells in table("| verb | check | kind | worst | tolerance | margin "
                       "| failing seeds | same at every seed |"):
        key = (cells[0], cells[1].strip("`"))
        assert key not in rows, key
        rows[key] = cells
    assert rows.keys() == {(label.get(verb, verb), name)
                           for verb, name in CHECKS}
    for (verb, name), check in CHECKS.items():
        cells = rows[label.get(verb, verb), name]
        assert cells[2] == ("floor" if check.floor else "residual"), name
        assert float(cells[4]) == check.tol, name

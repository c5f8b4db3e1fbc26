"""Every resource refusal goes through `errors.admit`, the one cap gate, and
names the cap it reads; the package holds ten caps, one for work and one
for summand values among them."""

import ast
import re
from pathlib import Path

import pytest
from conftest import hamming_distance_walks

from diagwalks import (DiagonalSystem, NepsBasis, brute_force_count,
                       brute_force_distribution, build_field, complete_graph,
                       convolution_distribution, hamming_walks,
                       kth_power_residues, neps_complete_walks,
                       neps_construct, neps_walks)
from diagwalks import errors, neps
from diagwalks import field as field_mod
from diagwalks.errors import CapExceeded, EnumerationTooLarge, admit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diagwalks"
CAP_ERRORS = {name for name, value in vars(errors).items()
              if isinstance(value, type) and issubclass(value, CapExceeded)}


def _raised_name(node: ast.Raise) -> str | None:
    """The name of the class a `raise` statement raises, when it names one."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def test_only_errors_raises_a_cap_refusal():
    assert "EnumerationTooLarge" in CAP_ERRORS and len(CAP_ERRORS) >= 6
    found = []
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    for path in modules:
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) in CAP_ERRORS]
    assert not found, f"cap refusals raised outside errors.admit: {found}"


def test_admit_refuses_only_past_the_cap_and_names_it():
    class Template(str):
        """A message template that records whether it was filled in."""
        filled = False

        def format(self, *args):
            Template.filled = True
            return super().format(*args)

    admit(EnumerationTooLarge, 10, 10, "CAP", Template("{} ops"))
    assert not Template.filled  # an admitted need formats nothing
    huge = 10**5000  # its decimal would itself raise ValueError
    with pytest.raises(EnumerationTooLarge) as info:
        admit(EnumerationTooLarge, huge, 10, "CAP", "{} of {} needs {} ops",
              "GF(4)", huge)
    assert str(info.value) == ("GF(4) of <16610-bit integer> needs "
                               "<16610-bit integer> ops, over the cap CAP "
                               "of 10")


def _admissions():
    """(module:line, name literal, cap source) of every `admit` call."""
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source, filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "admit"):
                name = node.args[3]
                yield (f"{path.name}:{node.lineno}",
                       name.value if isinstance(name, ast.Constant) else None,
                       ast.get_source_segment(source, node.args[2]))


def test_every_admission_names_the_cap_it_reads():
    admissions = list(_admissions())
    assert len(admissions) >= 13
    # a cap read through its module, as errors.MAX_WORK, is named MAX_WORK
    wrong = [(where, name, cap) for where, name, cap in admissions
             if name != re.sub(r"^[a-z_]+\.", "", cap)]
    assert not wrong, f"admissions naming another cap than they read: {wrong}"


def test_the_package_has_ten_caps():
    caps = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caps |= {f"{path.stem}.{target.id}" for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)
                 and target.id.startswith("MAX_")}
    assert caps == {
        "errors.MAX_COUNT_BITS", "errors.MAX_WORK",
        "field.MAX_FIELD_ORDER", "field.MAX_ADD_TABLE_BYTES",
        "field.MAX_SUMMANDS",
        "graphs.MAX_WALK_BYTES", "graphs.MAX_PRODUCT_BYTES",
        "neps.MAX_WALK_MEMO_BYTES",
        "diagonal.MAX_ENUM_TUPLES", "diagonal.MAX_CONVOLUTION_BYTES"}


def _hamming_reference():
    # walks of length 100 between vertices at distance 1 of H(2,3)
    return hamming_distance_walks(2, 3, 100)[100][1]


def _convolution_reference():
    rows = brute_force_distribution(build_field(3, 2), 2, 2).tolist()
    return [{alpha: n for alpha, n in enumerate(row) if n} for row in rows]


# each stage priced against errors.MAX_WORK: a call, a cap that refuses it
# there, after every admission before it, the start of the refusal, and a
# reference for the count the call returns under the real cap
WORK_STAGES = {
    # column sums (2,0), (1,1) twice and (0,2) over the standard basis
    "neps-dp": (
        lambda: neps_walks([[1, 2, 3]] * 2, NepsBasis.standard(2), 2),
        0, "the NEPS walk sum", lambda: 3 * 1 + 2 * (2 * 2) + 1 * 3),
    "complete-terms": (
        lambda: neps_complete_walks([2, 3], NepsBasis.standard(2), 4,
                                    (True, True)),
        0, "the spectral NEPS walk sum takes 8 terms",
        lambda: neps_construct([complete_graph(2), complete_graph(3)],
                               NepsBasis.standard(2)).walk_count(4, 0, 0)),
    # H(2,3): 3 weights of one word each, then 3 powers of 4 words at r=100
    "krawtchouk-weights": (
        lambda: hamming_walks(2, 3, 100, (True, False)),
        2, "the Krawtchouk weights of H(2,3)", _hamming_reference),
    "eigenvalue-powers": (
        lambda: hamming_walks(2, 3, 100, (True, False)),
        3, "the sum for H(2,3) raises 3 eigenvalues", _hamming_reference),
    "count-all": (
        lambda: DiagonalSystem(3, 1, 2).count_all(0, 2), 0, "M_s for s=2",
        lambda: brute_force_count(build_field(3, 2), 2, 0, 2, False)),
    "convolution": (
        lambda: convolution_distribution(build_field(3, 2), 2, 2),
        0, "2 convolution steps", _convolution_reference),
}


@pytest.mark.parametrize("stage", sorted(WORK_STAGES))
def test_every_work_stage_reads_the_one_work_cap(monkeypatch, stage):
    call, cap, message, reference = WORK_STAGES[stage]
    neps.cache_clear()  # a memo hit would skip the Hamming admissions
    with monkeypatch.context() as patch:
        patch.setattr(errors, "MAX_WORK", cap)
        with pytest.raises(CapExceeded) as info:
            call()
    assert str(info.value).startswith(message)
    assert str(info.value).endswith(f"over the cap MAX_WORK of {cap}")
    assert call() == reference()


@pytest.mark.parametrize("cap, refused", [(7, True), (8, False)])
def test_both_summand_lists_read_the_one_summand_cap(monkeypatch, cap,
                                                     refused):
    # R_3 of GF(25) and the nonzero summand values of GF(9) have 8 values,
    # each call's count of them
    monkeypatch.setattr(field_mod, "MAX_SUMMANDS", cap)
    f9, f25 = build_field(3, 2), build_field(5, 2)
    for call in (lambda: len(kth_power_residues(f25, 3)),
                 lambda: brute_force_distribution(f9, 2, 1)[1].sum()):
        if refused:
            with pytest.raises(EnumerationTooLarge,
                               match="8 .*over the cap MAX_SUMMANDS of 7$"):
                call()
        else:
            assert call() == 8

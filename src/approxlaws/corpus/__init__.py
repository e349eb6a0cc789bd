"""Machine-readable encodings of the worked problems with their published
multiplier and flux sets, used as regression fixtures and format examples.

Each entry is a problem file under ``data/``; the eps-multiple families
("the remaining multipliers are eps times the listed ones") are declared by
an ``epsilon_shifts`` line and expanded at load time.  Each recorded law
keeps the certification status its file expects.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources

from ..expr import NormalForm, UnsupportedFormError
from ..fluxes import ConservationLaw
from ..multipliers import MultiplierSet, parse_ansatz
from ..parser import ParseError, parse
from ..problem import HINT_DEFAULTS, PdeProblem, ProblemError, ProblemFile, parse_problem_text

ENTRY_IDS = [
    "diffusion-consistent",
    "diffusion-approach-a",
    "diffusion-approach-b",
    "kdv-burgers",
    "wave",
    "nls2",
    "nls3",
    "kaup-newell",
]


CorpusLaw = namedtuple("CorpusLaw", "label law expected_status")

# ``ansatz_hint`` is the AnsatzSpec of the file's hint.* lines, a missing key
# read as its CLI flag's default, or None when the file has no hint.* line
CorpusEntry = namedtuple("CorpusEntry", "id problem method laws ansatz_hint notes")


def _entry_text(entry_id: str) -> str:
    res = resources.files(__package__).joinpath("data", f"{entry_id}.prob")
    return res.read_text(encoding="utf-8")


def _parse_slots(table, texts: dict) -> dict:
    """Parse each ``(where, text)`` slot value of a problem file."""
    slots = {}
    for key, (where, text) in texts.items():
        try:
            slots[key] = parse(text, table)
        except (ParseError, UnsupportedFormError) as exc:
            raise ProblemError(f"{where}: {exc}") from exc
    return slots


def _law_from_expected(problem: PdeProblem, method: str, exp) -> ConservationLaw:
    """The law of one expected-result block.  Its multiplier and flux texts
    are parsed here, the one place fixtures become laws."""
    p = problem.p
    nslots = 1 if method == "approach_b" else p + 1
    mults = _parse_slots(problem.table, exp.mult)
    fluxes = _parse_slots(problem.table, exp.flux)
    mult_slots = []
    for nu in range(problem.q):
        row = [mults.get((nu, k), NormalForm({})) for k in range(p + 1)]
        mult_slots.append(tuple(row))
    flux = []
    for i in range(problem.table.n_indep):
        row = [fluxes.get((i, k), NormalForm({})) for k in range(nslots)]
        flux.append(tuple(row))
    mult = MultiplierSet(method, tuple(mult_slots))
    return ConservationLaw(mult, tuple(flux))


def recorded_laws(pf: ProblemFile) -> list:
    """The laws a problem file records, in index order, followed by the
    eps-multiples its ``epsilon_shifts`` line declares."""
    laws = []
    for exp in pf.expected:
        try:
            law = _law_from_expected(pf.problem, pf.method, exp)
        except UnsupportedFormError as exc:  # a slot outside the method's series form
            raise ProblemError(f"{pf.source}: law {exp.index}: {exc}") from exc
        laws.append(CorpusLaw(str(exp.index), law, exp.status or "identity"))
    by_label = {cl.label: cl for cl in laws}
    for n in pf.epsilon_shifts:
        base = by_label[str(n)]
        laws.append(CorpusLaw(f"{n}*eps", base.law.eps_shifted(), base.expected_status))
    return laws


def load(entry_id: str) -> CorpusEntry:
    """Parse one corpus entry; raises on unknown ids or malformed fixtures."""
    if entry_id not in ENTRY_IDS:
        raise KeyError(f"unknown corpus entry {entry_id!r}")
    pf = parse_problem_text(_entry_text(entry_id), source=entry_id)
    hint = None
    if pf.hints:
        h = HINT_DEFAULTS | pf.hints
        hint = parse_ansatz(pf.problem.table, h["mult_deps"], h["mult_degree"], h["mult_xdegree"], h["laurent"])
    return CorpusEntry(entry_id, pf.problem, pf.method, recorded_laws(pf), hint, pf.notes)

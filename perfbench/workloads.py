"""The three benchmark workloads: their job decks, jobs and output checks.

Each workload is a closed loop with one client: the next job starts when
the previous verdict is in.  Work is drawn in rounds.  A round holds a fixed
mix of job kinds in an order drawn from the workload seed (for ``fields``,
generator pairs dealt from a fixed pool), so every run sees the same size
mix and the seed changes only which concrete inputs arrive when.

A job fails when it raises, when its verdict is negative, or when a digest
of its output differs from the one recorded in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# One round of each CLI deck, as (suite, first size, second size).  Each
# deck is laid out so that the round's median job and the pooled tail job
# (the 11th slowest of a run) fall inside a group of identical jobs for
# three to five rounds a run: osp-defining(2,2) is the median job of
# ``structure``, isomorphism(3,3) its tail, and osp-defining(4,4) (cited in
# ROADMAP item 3) the one job slower than the tail.  isomorphism(4,4), at
# about 4.6 s a job, is left out to keep a round near ten seconds.
STRUCTURE_DECK = (
    [("isomorphism", 1, 1)] * 2
    + [("osp-defining", 1, 2), ("osp-defining", 2, 1),
       ("isomorphism", 2, 1), ("isomorphism", 1, 2)] * 2
    + [("osp-defining", 2, 2)] * 6
    + [("osp-defining", 1, 1), ("isomorphism", 2, 2)] * 2
    + [("osp-defining", 2, 3), ("osp-defining", 3, 2), ("osp-defining", 3, 3),
       ("isomorphism", 3, 2), ("isomorphism", 2, 3)]
    + [("isomorphism", 3, 3)] * 3
    + [("osp-defining", 4, 4)]
)

# imp-witness is dense ``linalg`` work over FieldScalar, bwb at large ranks
# is ``weights`` work.  imp-witness(3,2) is the median job, bwb(60,40) the
# tail job and imp-witness(4,4) the one job slower than the tail.
WITNESS_DECK = (
    [("bwb", 10, 10), ("imp-witness", 2, 2)] * 3
    + [("bwb", 20, 10)] * 2
    + [("imp-witness", 3, 2)] * 5
    + [("imp-witness", 2, 3), ("imp-witness", 3, 3), ("bwb", 30, 20)] * 2
    + [("bwb", 60, 40)] * 3
    + [("imp-witness", 4, 4)]
)

# Isotropic charts of the ``fields`` workload: (k1, l1, tail).
FIELD_CHARTS = (
    (3, 2, None),
    (3, 2, ((1,), (1,))),
    (4, 3, None),
    (5, 4, None),
    (5, 4, ((2,), (1,))),
    (6, 5, None),
)
# Pairs dealt per chart in one round.  With 16 from each larger chart,
# the round's median job is a (5,4) job, and the five costliest pool pairs
# (on the (6,5) and tailed (5,4) charts, about 1.7x the next ones) come up
# 1.25 times a round, so the run's eleventh slowest job is one of them.
PAIRS_PER_CHART = 16
PAIRS_PER_ROUND = {"k1=3 l1=2": 8, "k1=3 l1=2 tail=1|1": 8}
POOL_SIZE = 64


def chart_key(k1, l1, tail):
    text = f"k1={k1} l1={l1}"
    if tail:
        text += " tail=" + ",".join(map(str, tail[0])) + "|" \
            + ",".join(map(str, tail[1]))
    return text


def cli_key(job):
    return "%s %d %d" % job


def cli_argv(job):
    suite, a, b = job
    names = ("--m", "--n") if suite == "osp-defining" else ("--k1", "--l1")
    return ["verify", "--suite", suite, names[0], str(a), names[1], str(b)]


def digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


_TIMING = re.compile(r", \d+\.\d+s,")
_BACKEND = re.compile(r"backend=[^,)\s]*")


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in ("duration_seconds", "backend")}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def cli_output_digest(text, report, report_path):
    """Digest of a verify run's text and JSON, minus timings and backend."""
    text = text.replace(str(report_path), "<report>")
    text = _BACKEND.sub("backend=", _TIMING.sub(",", text))
    body = json.dumps(_strip_volatile(report), sort_keys=True,
                      ensure_ascii=False)
    return digest(text, body)


class CliWorkload:
    """Jobs are ``superflag verify --suite ... --json-out`` calls made
    in-process through ``superflag.cli.main``."""

    def __init__(self, deck, warmup, out_dir, expected):
        self.deck = deck
        self.warmup_jobs = warmup
        self.out_dir = out_dir
        self.report_path = out_dir / f"report-{os.getpid()}.json"
        self.expected = expected
        self.sf = None
        self.mix = {}

    def setup(self, sf):
        self.sf = sf
        self.out_dir.mkdir(exist_ok=True)
        for job in self.warmup_jobs:
            self.check(job, self.call(job))

    def round_jobs(self, rng):
        jobs = list(self.deck)
        rng.shuffle(jobs)
        return jobs

    def call(self, job):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.sf.cli.main(
                cli_argv(job) + ["--json-out", str(self.report_path)])
        return rc, out.getvalue()

    def output(self, result):
        """(exit code, report status, output digest) of a finished job;
        the JSON report is read and removed."""
        rc, text = result
        if rc != 0:
            return rc, None, None
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(self.report_path)
        return rc, report.get("status"), cli_output_digest(
            text, report, self.report_path)

    def check(self, job, result):
        """(ok, reason) for one finished job."""
        rc, status, got = self.output(result)
        if rc != 0:
            return False, f"exit code {rc}"
        if status != "pass":
            return False, "report status is not pass"
        if got != self.expected.get(cli_key(job)):
            return False, f"output digest {got} differs from the record"
        return True, ""

    def note(self, job, result):
        self.mix[cli_key(job)] = self.mix.get(cli_key(job), 0) + 1

    def properties(self):
        return {"size_mix": dict(sorted(self.mix.items()))}

    def close(self):
        if self.report_path.exists():
            self.report_path.unlink()


class FieldsWorkload:
    """Library calls: for a generator pair (X, Y) on an isotropic chart,
    check field(X).bracket(field(Y)) == sign * field([X, Y])."""

    def __init__(self, recorded):
        self.pools = {key: [(x, y) for x, y, _ in pairs]
                      for key, pairs in recorded.items()}
        self.expected = {(key, x, y): d for key, pairs in recorded.items()
                         for x, y, d in pairs}
        self.sf = None
        self.charts = {}
        self.shoes = {}
        self.mix, self.seen, self.reused, self.nonzero = {}, {}, 0, 0

    def setup(self, sf):
        self.sf = sf
        self.charts = {}
        for k1, l1, tail in FIELD_CHARTS:
            iso = sf.charts.isotropic_chart(k1, l1, tail=tail)
            bas = sf.osp.basis("odd", k1 - 1, l1)
            self.charts[chart_key(k1, l1, tail)] = (iso, bas)
        for key in self.charts:
            job = (key,) + self.pools[key][0]
            self.check(job, self.call(job))

    def round_jobs(self, rng):
        """Deal each chart's pairs from a seeded shuffle of its pool, so
        that every pair comes up equally often in a run; a pair drawn at
        random would leave the share of expensive pairs to chance."""
        jobs = []
        for key in self.charts:
            count = PAIRS_PER_ROUND.get(key, PAIRS_PER_CHART)
            shoe = self.shoes.setdefault(key, [])
            if len(shoe) < count:
                pool = list(self.pools[key])
                rng.shuffle(pool)
                shoe.extend(pool)
            jobs.extend((key, x, y) for x, y in shoe[:count])
            del shoe[:count]
        rng.shuffle(jobs)
        return jobs

    def call(self, job):
        key, xtag, ytag = job
        iso, bas = self.charts[key]
        ch = self.sf.charts
        x, y = bas[xtag], bas[ytag]
        fx = ch.fundamental_field(x.matrix, iso.chart)
        fy = ch.fundamental_field(y.matrix, iso.chart)
        br = x.matrix.superbracket(y.matrix)
        fb = ch.fundamental_field(br, iso.chart)
        sign = ch.fundamental_bracket_sign(x.parity, y.parity)
        holds = fx.bracket(fy) == fb.scale(self.sf.scalars.FieldScalar(sign))
        return holds, (fx.render(), fy.render(), fb.render()), br.is_zero()

    def check(self, job, result):
        holds, renders, _ = result
        if not holds:
            return False, "field bracket identity fails"
        got = digest(*renders)
        if got != self.expected[job]:
            return False, f"output digest {got} differs from the record"
        return True, ""

    def note(self, job, result):
        key, x, y = job
        self.mix[key] = self.mix.get(key, 0) + 1
        gens = self.seen.setdefault(key, set())
        self.reused += x in gens or y in gens
        gens.update((x, y))
        self.nonzero += not result[2]

    def properties(self):
        jobs = max(1, sum(self.mix.values()))
        return {"size_mix": dict(sorted(self.mix.items())),
                "nonzero_bracket_share": round(self.nonzero / jobs, 4),
                "generator_reuse_share": round(self.reused / jobs, 4)}

    def close(self):
        pass


def make(name, out_dir):
    recorded = json.loads(DIGESTS.read_text())[name]
    if name == "structure":
        return CliWorkload(STRUCTURE_DECK,
                           [("osp-defining", 1, 1), ("isomorphism", 1, 1)],
                           out_dir, recorded)
    if name == "witness-weights":
        return CliWorkload(WITNESS_DECK,
                           [("imp-witness", 2, 2), ("bwb", 10, 10)],
                           out_dir, recorded)
    if name == "fields":
        return FieldsWorkload(recorded)
    raise ValueError(f"unknown workload {name!r}")

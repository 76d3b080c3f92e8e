"""JSON round-trip for learning artifacts.

The paper's whole point is *learn once, reuse everywhere*: the learned
implications, ties and equivalences are circuit invariants, so a
:class:`~repro.core.engine.LearnResult` computed in one process should be
reusable by every later ATPG run on the same netlist.  This module gives
it a stable on-disk form:

* :func:`learn_result_to_dict` / :func:`learn_result_from_dict` -- plain
  dicts, node references by *name* (human-diffable artifacts);
* :func:`save_learn_result` / :func:`load_learn_result` -- JSON files.

Every artifact is keyed to the circuit's structural
:meth:`~repro.circuit.netlist.Circuit.fingerprint`.  Loading against a
circuit whose fingerprint differs raises :class:`StaleArtifactError` --
learned knowledge silently applied to the wrong netlist would be unsound,
which is the one failure mode this layer must never allow.

The phase-one ``single_node_data`` traces are deliberately *not*
serialized: they are simulation intermediates only the learning phases
themselves consume, and they dwarf the useful payload.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Dict, List, Optional

from ..circuit.netlist import Circuit, CircuitError
from ..core.engine import LearnConfig, LearnResult
from ..core.multi_node import MultiNodeStats
from ..core.relations import RelationDB
from ..core.ties import TieSet
from .config import _from_dict

#: Version of the learning-artifact layout, bumped whenever it changes
#: incompatibly.  Version 2 dropped the width knobs
#: (``signature_width``, ``single_node_batch_width``) from the saved
#: learning config.
FORMAT_VERSION = 2

LEARN_FORMAT = "repro/learn-result"


class ArtifactError(ValueError):
    """Raised for malformed or incompatible serialized artifacts."""


#: Disambiguates concurrent temp files within one process; the pid in
#: the name separates processes.
_TMP_IDS = itertools.count()


def write_json_atomic(path, payload: Dict[str, object]) -> None:
    """Write ``payload`` as JSON without ever exposing a partial file.

    The document is written to a temporary file in the destination
    directory and ``os.replace``-d into place, so a crash (or full disk)
    mid-write leaves either the previous artifact or nothing -- never a
    truncated JSON document that a later load would reject.  The file is
    created with mode ``0o666`` so the kernel's umask yields the same
    permissions a plain ``open(path, "w")`` would have.
    """
    path = os.fspath(path)
    tmp_path = None
    try:
        while True:
            candidate = f"{path}.{os.getpid()}.{next(_TMP_IDS)}.tmp"
            try:
                fd = os.open(candidate,
                             os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                             0o666)
            except FileExistsError:
                continue  # stale leftover from a recycled pid
            except OSError as exc:
                # Surface the destination, not the internal temp name,
                # keeping the subclass and errno callers match on.
                raise type(exc)(
                    exc.errno, f"cannot write: {exc.strerror or exc}",
                    path) from exc
            tmp_path = candidate
            break
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if tmp_path is not None:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise


class StaleArtifactError(ArtifactError):
    """Raised when an artifact's circuit fingerprint does not match."""


def circuit_fingerprint(circuit: Circuit) -> str:
    """Structural hash keying artifacts to their netlist."""
    return circuit.fingerprint()


# ----------------------------------------------------------------------
# LearnResult
# ----------------------------------------------------------------------
def learn_result_to_dict(result: LearnResult,
                         digest: Optional[str] = None
                         ) -> Dict[str, object]:
    """Serializable form of everything the learning engine extracted.

    ``digest`` optionally stamps the artifact with its content address
    (circuit fingerprint + learning config, see
    :func:`repro.api.store.learn_digest`).  Digest-stamped artifacts can
    be validated against the *configuration* that produced them, not
    just the netlist -- the fingerprint-only check cannot tell a
    50-frame learning run from a 5-frame one.
    """
    circuit = result.circuit
    name_of = lambda nid: circuit.nodes[nid].name  # noqa: E731

    relations = [{
        "a": name_of(r.a), "va": r.va,
        "b": name_of(r.b), "vb": r.vb,
        "source": r.source, "sequential": r.sequential,
        "warmup": r.warmup,
    } for r in result.relations]
    ties = [{
        "node": name_of(t.nid), "value": t.value,
        "sequential": t.sequential, "phase": t.phase,
        "warmup": t.warmup,
    } for t in result.ties.all()]
    equivalences = [{
        "node": name_of(nid), "cls": name_of(cls), "polarity": pol,
    } for nid, (cls, pol) in sorted(result.equivalences.items())]
    multi = result.multi_stats
    payload: Dict[str, object] = {
        "format": LEARN_FORMAT,
        "version": FORMAT_VERSION,
        "circuit": {
            "name": circuit.name,
            "fingerprint": circuit.fingerprint(),
            "nodes": len(circuit),
            "ffs": circuit.num_ffs,
        },
        "config": result.config.to_dict(),
        "elapsed": result.elapsed,
        "phase_times": dict(result.phase_times),
        "relations": relations,
        "ties": ties,
        "equivalences": equivalences,
        "multi_stats": {
            "targets_run": multi.targets_run,
            "targets_skipped": multi.targets_skipped,
            "relations_added": multi.relations_added,
            "ties_found": multi.ties_found,
            "conflicts": [[name_of(nid), value]
                          for nid, value in multi.conflicts],
        },
    }
    if digest is not None:
        payload["digest"] = digest
    return payload


def _check_header(data: Dict[str, object], expected_format: str) -> None:
    if not isinstance(data, dict):
        raise ArtifactError(f"artifact must be a dict, got {type(data)}")
    if data.get("format") != expected_format:
        raise ArtifactError(
            f"not a {expected_format} artifact "
            f"(format={data.get('format')!r})")
    if data.get("version") != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact version {data.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})")


def learn_result_from_dict(data: Dict[str, object],
                           circuit: Circuit,
                           expect_digest: Optional[str] = None
                           ) -> LearnResult:
    """Rebuild a :class:`LearnResult` against a live circuit.

    The circuit must structurally match the one the artifact was learned
    on; a fingerprint mismatch raises :class:`StaleArtifactError`.  When
    ``expect_digest`` is given, a digest-stamped artifact must carry
    exactly that content address (fingerprint *and* learning config) or
    :class:`StaleArtifactError` is raised; unstamped artifacts fall back
    to the fingerprint-only check for backward compatibility.
    """
    _check_header(data, LEARN_FORMAT)
    meta = data.get("circuit")
    if not isinstance(meta, dict):
        raise ArtifactError("artifact is missing its 'circuit' section")
    have = circuit.fingerprint()
    want = meta.get("fingerprint")
    if want != have:
        raise StaleArtifactError(
            f"artifact was learned on {meta.get('name')!r} "
            f"(fingerprint {str(want)[:12]}...), which does not match "
            f"circuit {circuit.name!r} (fingerprint {have[:12]}...); "
            "re-run learning for this netlist")
    stamped = data.get("digest")
    if (expect_digest is not None and stamped is not None
            and stamped != expect_digest):
        raise StaleArtifactError(
            f"artifact digest {str(stamped)[:12]}... does not match the "
            f"requested configuration (digest {expect_digest[:12]}...); "
            "it was learned with a different learning config -- re-run "
            "learning or drop the artifact")

    try:
        config = _from_dict(LearnConfig, data.get("config", {}))
        return _rebuild_body(data, circuit, config)
    except CircuitError as exc:
        # Fingerprint matched but a node reference does not resolve:
        # the artifact was hand-edited or corrupted after saving.
        raise ArtifactError(
            f"artifact references a node the circuit does not have: "
            f"{exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ArtifactError):
            raise
        raise ArtifactError(
            f"malformed artifact payload: {exc!r}") from exc


def _rebuild_body(data: Dict[str, object], circuit: Circuit,
                  config: LearnConfig) -> LearnResult:
    relations = RelationDB(circuit)
    for item in data.get("relations", ()):
        relations.add(circuit.nid(item["a"]), item["va"],
                      circuit.nid(item["b"]), item["vb"],
                      source=item.get("source", "single"),
                      sequential=item.get("sequential", True),
                      warmup=item.get("warmup", 1))
    ties = TieSet(circuit)
    for item in data.get("ties", ()):
        ties.add(circuit.nid(item["node"]), item["value"],
                 sequential=item.get("sequential", True),
                 phase=item.get("phase", "single"),
                 warmup=item.get("warmup", 0))
    equivalences = {
        circuit.nid(item["node"]): (circuit.nid(item["cls"]),
                                    item["polarity"])
        for item in data.get("equivalences", ())}
    multi_raw = data.get("multi_stats", {})
    multi = MultiNodeStats(
        targets_run=multi_raw.get("targets_run", 0),
        targets_skipped=multi_raw.get("targets_skipped", 0),
        relations_added=multi_raw.get("relations_added", 0),
        ties_found=multi_raw.get("ties_found", 0),
        conflicts=[(circuit.nid(name), value)
                   for name, value in multi_raw.get("conflicts", ())])
    return LearnResult(
        circuit=circuit, config=config, relations=relations, ties=ties,
        equivalences=equivalences, single_node_data={},
        multi_stats=multi, elapsed=data.get("elapsed", 0.0),
        phase_times=dict(data.get("phase_times", {})))


def save_learn_result(result: LearnResult, path,
                      digest: Optional[str] = None) -> None:
    """Write a learning artifact as JSON (atomically)."""
    write_json_atomic(path, learn_result_to_dict(result, digest=digest))


def load_learn_result(path, circuit: Circuit,
                      expect_digest: Optional[str] = None) -> LearnResult:
    """Read a JSON learning artifact and bind it to ``circuit``."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: not valid JSON ({exc})") from exc
    return learn_result_from_dict(data, circuit,
                                  expect_digest=expect_digest)
